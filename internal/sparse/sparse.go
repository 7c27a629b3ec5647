// Package sparse implements the sparse and dense float64 vector types
// used throughout MLLess: model parameters are dense, per-step updates
// (gradients, filtered deltas) are sparse. The binary encoding defined
// here determines the byte counts charged by the simulated network links,
// exactly as serialized update size determined Redis traffic in the
// paper's prototype.
//
// Vector is backed by a purpose-built open-addressing hash table
// (uint32 keys, linear probing, backward-shift deletion) rather than a
// Go map: sparse-update accumulation is the simulator's hottest loop,
// and the specialized table roughly halves its cost. Sorted extraction
// uses an LSD radix sort.
package sparse

import (
	"fmt"
	"math"
)

// Vector is a sparse float64 vector keyed by coordinate index.
// The zero value is an empty vector ready for use (construct with New
// for symmetry with NewWithCapacity).
//
// Indices must fit in uint32 (the binary encoding uses 4-byte indices);
// the largest model in the repository (PMF on the MovieLens-20M-scale
// dataset) has well under 2^32 parameters.
type Vector struct {
	keys []uint32
	vals []float64
	occ  []bool
	n    int
}

// minCapacity is the initial table size (power of two).
const minCapacity = 16

// New returns an empty sparse vector.
func New() *Vector { return &Vector{} }

// NewWithCapacity returns an empty sparse vector with room for n entries
// before the first grow.
func NewWithCapacity(n int) *Vector {
	v := &Vector{}
	v.init(n)
	return v
}

func (v *Vector) init(entries int) {
	capacity := minCapacity
	for capacity*3 < entries*4 { // keep load factor under 3/4
		capacity *= 2
	}
	v.keys = make([]uint32, capacity)
	v.vals = make([]float64, capacity)
	v.occ = make([]bool, capacity)
}

// hash spreads a key over the table (Fibonacci hashing).
func hashKey(k uint32, mask uint32) uint32 {
	return (k * 2654435761) & mask
}

// findSlot returns the slot of key i or, if absent, the slot where it
// would be inserted. ok reports presence.
func (v *Vector) findSlot(i uint32) (slot uint32, ok bool) {
	mask := uint32(len(v.keys) - 1)
	slot = hashKey(i, mask)
	for v.occ[slot] {
		if v.keys[slot] == i {
			return slot, true
		}
		slot = (slot + 1) & mask
	}
	return slot, false
}

func (v *Vector) grow() {
	oldKeys, oldVals, oldOcc := v.keys, v.vals, v.occ
	capacity := len(oldKeys) * 2
	v.keys = make([]uint32, capacity)
	v.vals = make([]float64, capacity)
	v.occ = make([]bool, capacity)
	v.n = 0
	for s := range oldKeys {
		if oldOcc[s] {
			v.insert(oldKeys[s], oldVals[s])
		}
	}
}

// insert places a (key, val) pair known to be absent; val must be
// non-zero.
func (v *Vector) insert(i uint32, val float64) {
	slot, _ := v.findSlot(i)
	v.keys[slot] = i
	v.vals[slot] = val
	v.occ[slot] = true
	v.n++
}

// Len reports the number of non-zero entries.
func (v *Vector) Len() int { return v.n }

// Get returns the value at index i (0 when absent).
func (v *Vector) Get(i uint32) float64 {
	if v.n == 0 {
		return 0
	}
	if slot, ok := v.findSlot(i); ok {
		return v.vals[slot]
	}
	return 0
}

// Set stores val at index i. Setting an exact zero removes the entry so
// that Len always equals the number of stored non-zeros.
func (v *Vector) Set(i uint32, val float64) {
	if val == 0 {
		v.Remove(i)
		return
	}
	if v.keys == nil {
		v.init(0)
	}
	if slot, ok := v.findSlot(i); ok {
		v.vals[slot] = val
		return
	}
	if (v.n+1)*4 > len(v.keys)*3 {
		v.grow()
	}
	v.insert(i, val)
}

// Add accumulates val into index i, removing the entry if the sum
// cancels to exactly zero.
func (v *Vector) Add(i uint32, val float64) {
	if v.keys == nil {
		if val == 0 {
			return
		}
		v.init(0)
	}
	slot, ok := v.findSlot(i)
	if ok {
		s := v.vals[slot] + val
		if s == 0 {
			v.removeSlot(slot)
			return
		}
		v.vals[slot] = s
		return
	}
	if val == 0 {
		return
	}
	if (v.n+1)*4 > len(v.keys)*3 {
		v.grow()
	}
	v.insert(i, val)
}

// Remove deletes the entry at index i and returns its previous value.
func (v *Vector) Remove(i uint32) float64 {
	if v.n == 0 {
		return 0
	}
	slot, ok := v.findSlot(i)
	if !ok {
		return 0
	}
	val := v.vals[slot]
	v.removeSlot(slot)
	return val
}

// removeSlot deletes an occupied slot using backward-shift deletion
// (Knuth, TAOCP 6.4 algorithm R), preserving probe chains without
// tombstones: scan forward to the next empty slot, moving back every
// entry whose probe path crosses the hole.
func (v *Vector) removeSlot(slot uint32) {
	mask := uint32(len(v.keys) - 1)
	hole := slot
	j := hole
	for {
		j = (j + 1) & mask
		if !v.occ[j] {
			break
		}
		home := hashKey(v.keys[j], mask)
		// The entry at j may fill the hole unless its home lies
		// cyclically within (hole, j] — then the hole is not on its
		// probe path.
		if cyclicIn(hole, home, j) {
			continue
		}
		v.keys[hole] = v.keys[j]
		v.vals[hole] = v.vals[j]
		hole = j
	}
	v.occ[hole] = false
	v.n--
}

// cyclicIn reports whether k lies in the half-open cyclic interval
// (i, j].
func cyclicIn(i, k, j uint32) bool {
	if i < j {
		return k > i && k <= j
	}
	return k > i || k <= j
}

// AddVector accumulates other into v (v += other).
func (v *Vector) AddVector(other *Vector) {
	for s := range other.keys {
		if other.occ[s] {
			v.Add(other.keys[s], other.vals[s])
		}
	}
}

// AddScaledVector accumulates s*other into v (v += s*other).
func (v *Vector) AddScaledVector(other *Vector, s float64) {
	if s == 0 {
		return
	}
	for slot := range other.keys {
		if other.occ[slot] {
			v.Add(other.keys[slot], s*other.vals[slot])
		}
	}
}

// Scale multiplies every entry by s. Scaling by 0 clears the vector.
func (v *Vector) Scale(s float64) {
	if s == 0 {
		v.Clear()
		return
	}
	for slot := range v.vals {
		if v.occ[slot] {
			v.vals[slot] *= s
		}
	}
}

// DropZeros removes every entry holding an exact zero (±0). Scale works
// in place and keeps entries that underflow to zero; DropZeros restores
// Len to the count of non-zeros.
func (v *Vector) DropZeros() {
	for slot := 0; slot < len(v.keys); {
		if v.occ[slot] && v.vals[slot] == 0 {
			// Backward-shift deletion may move a later entry into this
			// slot, so look at it again. Entries it moves from before
			// the slot (a probe chain wrapping the table's end) were
			// already seen and are non-zero.
			v.removeSlot(uint32(slot))
			continue
		}
		slot++
	}
}

// Clear removes all entries, retaining the allocation.
func (v *Vector) Clear() {
	for i := range v.occ {
		v.occ[i] = false
	}
	v.n = 0
}

// reset empties the vector and guarantees room for entries inserts
// without an incremental grow, reusing the existing table when it is
// already large enough.
func (v *Vector) reset(entries int) {
	capacity := minCapacity
	for capacity*3 < entries*4 { // same load-factor rule as init
		capacity *= 2
	}
	if len(v.keys) >= capacity {
		v.Clear()
		return
	}
	v.init(entries)
	v.n = 0
}

// CopyFrom replaces v's contents with an exact copy of src — same table
// layout, bit-identical values — reusing v's storage when the
// capacities already match: the zero-allocation counterpart of Clone
// for scratch vectors reused across steps.
func (v *Vector) CopyFrom(src *Vector) {
	if src.keys == nil {
		v.Clear()
		return
	}
	if len(v.keys) != len(src.keys) {
		v.keys = make([]uint32, len(src.keys))
		v.vals = make([]float64, len(src.vals))
		v.occ = make([]bool, len(src.occ))
	}
	copy(v.keys, src.keys)
	copy(v.vals, src.vals)
	copy(v.occ, src.occ)
	v.n = src.n
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	c := &Vector{n: v.n}
	if v.keys != nil {
		c.keys = append([]uint32(nil), v.keys...)
		c.vals = append([]float64(nil), v.vals...)
		c.occ = append([]bool(nil), v.occ...)
	}
	return c
}

// ForEach calls fn for every non-zero entry in unspecified order. Use it
// only where the computation is per-coordinate independent; reductions
// that accumulate across coordinates must use ForEachSorted, because
// float addition is not associative and table order is arbitrary.
func (v *Vector) ForEach(fn func(i uint32, val float64)) {
	for s := range v.keys {
		if v.occ[s] {
			fn(v.keys[s], v.vals[s])
		}
	}
}

// ForEachSorted calls fn for every non-zero entry in ascending index
// order: deterministic, at the cost of a pair sort over pooled scratch
// (zero steady-state allocations; see pairs.go).
func (v *Vector) ForEachSorted(fn func(i uint32, val float64)) {
	if v.n == 0 {
		return
	}
	ps := pairPool.Get().(*pairScratch)
	idx, vals := ps.extract(v)
	for k, i := range idx {
		fn(i, vals[k])
	}
	pairPool.Put(ps)
}

// Indices returns the non-zero indices in ascending order.
func (v *Vector) Indices() []uint32 {
	idx := make([]uint32, 0, v.n)
	for s := range v.keys {
		if v.occ[s] {
			idx = append(idx, v.keys[s])
		}
	}
	radixSortUint32(idx)
	return idx
}

// Dot returns the inner product with a dense vector, accumulated in
// ascending index order so results are run-to-run deterministic (the
// §6.1 sanity check depends on bit-identical losses across systems).
// Entries of v whose index falls outside d are ignored.
func (v *Vector) Dot(d Dense) float64 {
	if v.n == 0 {
		return 0
	}
	ps := pairPool.Get().(*pairScratch)
	idx, vals := ps.extract(v)
	sum := 0.0
	for k, i := range idx {
		if int(i) < len(d) {
			sum += vals[k] * d[i]
		}
	}
	pairPool.Put(ps)
	return sum
}

// NormL2 returns the Euclidean norm of the vector (deterministic order).
func (v *Vector) NormL2() float64 {
	if v.n == 0 {
		return 0
	}
	ps := pairPool.Get().(*pairScratch)
	_, vals := ps.extract(v)
	sum := 0.0
	for _, val := range vals {
		sum += val * val
	}
	pairPool.Put(ps)
	return math.Sqrt(sum)
}

// NormL1 returns the taxicab norm of the vector (deterministic order).
func (v *Vector) NormL1() float64 {
	if v.n == 0 {
		return 0
	}
	ps := pairPool.Get().(*pairScratch)
	_, vals := ps.extract(v)
	sum := 0.0
	for _, val := range vals {
		sum += math.Abs(val)
	}
	pairPool.Put(ps)
	return sum
}

// Equal reports whether two sparse vectors hold identical entries. It
// short-circuits on the first mismatch.
func (v *Vector) Equal(other *Vector) bool {
	if v.n != other.n {
		return false
	}
	for s := range v.keys {
		if v.occ[s] && other.Get(v.keys[s]) != v.vals[s] {
			return false
		}
	}
	return true
}

// String renders up to eight entries for debugging.
func (v *Vector) String() string {
	idx := v.Indices()
	s := "sparse{"
	for k, i := range idx {
		if k == 8 {
			s += fmt.Sprintf(" …(+%d)", len(idx)-8)
			break
		}
		if k > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%.4g", i, v.Get(i))
	}
	return s + "}"
}

// radixSortUint32 sorts in place with an LSD byte-wise radix sort,
// skipping passes whose byte is constant zero.
func radixSortUint32(a []uint32) {
	if len(a) < 64 {
		// Insertion sort beats radix setup on tiny inputs.
		for i := 1; i < len(a); i++ {
			x := a[i]
			j := i - 1
			for j >= 0 && a[j] > x {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	var max uint32
	for _, x := range a {
		if x > max {
			max = x
		}
	}
	buf := make([]uint32, len(a))
	src, dst := a, buf
	for shift := uint(0); shift < 32 && max>>shift > 0; shift += 8 {
		var counts [257]int
		for _, x := range src {
			counts[((x>>shift)&0xFF)+1]++
		}
		for i := 1; i < 257; i++ {
			counts[i] += counts[i-1]
		}
		for _, x := range src {
			b := (x >> shift) & 0xFF
			dst[counts[b]] = x
			counts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// Dense is a dense float64 vector.
type Dense []float64

// NewDense returns a zeroed dense vector of length n.
func NewDense(n int) Dense { return make(Dense, n) }

// Clone returns a deep copy.
func (d Dense) Clone() Dense {
	c := make(Dense, len(d))
	copy(c, d)
	return c
}

// AddSparse accumulates a sparse vector into d (d += v). Indices outside
// d are ignored, matching Vector.Dot.
func (d Dense) AddSparse(v *Vector) {
	v.ForEach(func(i uint32, val float64) {
		if int(i) < len(d) {
			d[i] += val
		}
	})
}

// AddScaledSparse accumulates s*v into d.
func (d Dense) AddScaledSparse(v *Vector, s float64) {
	v.ForEach(func(i uint32, val float64) {
		if int(i) < len(d) {
			d[i] += s * val
		}
	})
}

// Axpy computes d += s*x for dense x. The vectors must be equal length.
func (d Dense) Axpy(x Dense, s float64) {
	for i := range d {
		d[i] += s * x[i]
	}
}

// Dot returns the inner product with another dense vector of equal length.
func (d Dense) Dot(x Dense) float64 {
	sum := 0.0
	for i := range d {
		sum += d[i] * x[i]
	}
	return sum
}

// NormL2 returns the Euclidean norm.
func (d Dense) NormL2() float64 {
	sum := 0.0
	for _, v := range d {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Scale multiplies every element by s.
func (d Dense) Scale(s float64) {
	for i := range d {
		d[i] *= s
	}
}

// Fill sets every element to val.
func (d Dense) Fill(val float64) {
	for i := range d {
		d[i] = val
	}
}

// ToSparse converts the dense vector to a sparse one holding its
// non-zero entries. The indices are unique by construction, so entries
// are inserted directly (one probe each, no duplicate check) into a
// table grown once to its final size.
func (d Dense) ToSparse() *Vector {
	nnz := 0
	for _, val := range d {
		if val != 0 {
			nnz++
		}
	}
	v := NewWithCapacity(nnz)
	if nnz == 0 {
		return v
	}
	for i, val := range d {
		if val != 0 {
			v.insert(uint32(i), val)
		}
	}
	return v
}

// Average overwrites d with the element-wise mean of d and other, the
// one-shot reintegration step the scale-in scheduler performs when a
// worker leaves under ISP (§4.2, eviction policy).
func (d Dense) Average(other Dense) {
	for i := range d {
		d[i] = 0.5 * (d[i] + other[i])
	}
}
