package sparse

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"mlless/internal/xrand"
)

// addEncoded is the streaming reference for decode-then-merge: it
// parses the wire bytes and adds each entry into d in one pass, the way
// peer updates were applied before Decoded existed. Decoded must match
// it bit for bit, errors included.
func addEncoded(d Dense, buf []byte) (int, error) {
	n, err := entryCount(buf, "decode")
	if err != nil {
		return 0, err
	}
	off := sparseHeaderSize
	for k := 0; k < n; k++ {
		i := binary.LittleEndian.Uint32(buf[off:])
		val := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:]))
		if int(i) < len(d) {
			d[i] += val
		}
		off += sparseEntrySize
	}
	return n, nil
}

// rawEncoding builds a wire buffer from explicit pairs, in the given
// order, so tests can cover layouts Encode never produces.
func rawEncoding(idx []uint32, val []float64) []byte {
	buf := make([]byte, sparseHeaderSize+sparseEntrySize*len(idx))
	binary.LittleEndian.PutUint32(buf, uint32(len(idx)))
	off := sparseHeaderSize
	for k, i := range idx {
		binary.LittleEndian.PutUint32(buf[off:], i)
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(val[k]))
		off += sparseEntrySize
	}
	return buf
}

// sameBits reports whether two dense vectors are bitwise identical.
func sameBits(a, b Dense) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// seededDense returns a dense vector of non-trivial values, so merges
// round rather than land on exact zeros.
func seededDense(seed uint64, n int) Dense {
	r := xrand.New(seed)
	d := NewDense(n)
	for i := range d {
		d[i] = r.NormFloat64()
	}
	return d
}

// checkMergeParity merges each buffer, in order, into two copies of the
// same replica — one through a reused Decoded, one through the
// streaming reference — and fails unless the counts and every bit
// agree.
func checkMergeParity(t *testing.T, dim int, bufs ...[]byte) {
	t.Helper()
	want := seededDense(7, dim)
	got := want.Clone()
	var u Decoded
	for k, buf := range bufs {
		wn, err := addEncoded(want, buf)
		if err != nil {
			t.Fatalf("update %d: reference: %v", k, err)
		}
		if err := u.DecodeFrom(buf); err != nil {
			t.Fatalf("update %d: DecodeFrom: %v", k, err)
		}
		if u.Len() != wn {
			t.Fatalf("update %d: Len %d, reference applied %d", k, u.Len(), wn)
		}
		if n := u.AddTo(got); n != wn {
			t.Fatalf("update %d: AddTo = %d, reference %d", k, n, wn)
		}
	}
	if !sameBits(got, want) {
		t.Fatalf("decoded merge differs from the streaming reference:\n got %v\nwant %v", got, want)
	}
}

func TestDecodedMergeMatchesStreaming(t *testing.T) {
	r := xrand.New(41)
	for _, tc := range []struct {
		name string
		dim  int
		bufs [][]byte
	}{
		{"empty", 8, [][]byte{New().Encode()}},
		{"single", 8, [][]byte{rawEncoding([]uint32{3}, []float64{0.1})}},
		{"out-of-range", 8, [][]byte{rawEncoding([]uint32{1, 7, 8, 1 << 31}, []float64{1e-3, -2, 5, 9})}},
		{"full-range", 4, [][]byte{rawEncoding([]uint32{0, 1, 2, 3}, []float64{1, 2, 3, 4})}},
		// Layouts Encode never emits still merge in wire order.
		{"descending", 16, [][]byte{rawEncoding([]uint32{9, 4, 2}, []float64{0.3, 0.7, -1.1})}},
		{"duplicates", 16, [][]byte{rawEncoding([]uint32{5, 5, 5}, []float64{1e16, 1, -1e16})}},
		{"specials", 8, [][]byte{rawEncoding([]uint32{0, 1, 2, 3},
			[]float64{math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64})}},
		{"many-peers", 300, [][]byte{
			randomVector(r, 300, 40).Encode(),
			randomVector(r, 300, 0).Encode(),
			randomVector(r, 400, 120).Encode(),
			randomVector(r, 300, 300).Encode(),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkMergeParity(t, tc.dim, tc.bufs...) })
	}
}

func TestDecodedMergesManyReplicas(t *testing.T) {
	// Decode once, merge into several replicas: each must equal the
	// replica merged from the bytes, and merging must not consume or
	// alter the decoded form.
	r := xrand.New(42)
	buf := randomVector(r, 500, 200).Encode()
	var u Decoded
	if err := u.DecodeFrom(buf); err != nil {
		t.Fatal(err)
	}
	for rep := uint64(0); rep < 4; rep++ {
		want := seededDense(rep, 500)
		got := want.Clone()
		if _, err := addEncoded(want, buf); err != nil {
			t.Fatal(err)
		}
		u.AddTo(got)
		if !sameBits(got, want) {
			t.Fatalf("replica %d differs from the streaming merge", rep)
		}
	}
}

func TestAddEncodedMatchesDecodeApply(t *testing.T) {
	// The streaming reference, a hash-table decode plus AddSparse, and
	// the Decoded merge all apply the same update identically.
	r := xrand.New(201)
	if err := quick.Check(func(seed uint64) bool {
		rr := xrand.New(seed ^ r.Uint64())
		v := randomVector(rr, 100, rr.Intn(40))
		buf := v.Encode()

		viaDecode := seededDense(seed, 100)
		direct := viaDecode.Clone()
		viaDecoded := viaDecode.Clone()
		dec := New()
		if err := DecodeInto(dec, buf); err != nil {
			return false
		}
		viaDecode.AddSparse(dec)

		n, err := addEncoded(direct, buf)
		if err != nil || n != v.Len() {
			return false
		}
		var u Decoded
		if err := u.DecodeFrom(buf); err != nil || u.AddTo(viaDecoded) != n {
			return false
		}
		return sameBits(direct, viaDecode) && sameBits(direct, viaDecoded)
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddEncodedIgnoresOutOfRange(t *testing.T) {
	v := New()
	v.Set(2, 1.5)
	v.Set(50, -1)
	d := NewDense(10)
	var u Decoded
	if err := u.DecodeFrom(v.Encode()); err != nil {
		t.Fatal(err)
	}
	if n := u.AddTo(d); n != 2 {
		t.Fatalf("AddTo = %d, want 2 (out-of-range entries count)", n)
	}
	if d[2] != 1.5 {
		t.Fatal("in-range entry not applied")
	}
	ref := NewDense(10)
	if n, err := addEncoded(ref, v.Encode()); err != nil || n != 2 || !sameBits(d, ref) {
		t.Fatalf("reference = %d, %v, %v; decoded %v", n, err, ref, d)
	}
}

func TestAddEncodedErrors(t *testing.T) {
	// Malformed buffers fail DecodeFrom with exactly the reference's
	// (and DecodeInto's) errors, and leave the decoded form empty.
	v := New()
	v.Set(1, 1)
	v.Set(6, -2)
	good := v.Encode()
	overLong := append(append([]byte(nil), good...), 0)
	claimsMore := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(claimsMore, 3)
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"nil", nil},
		{"short-header", []byte{1, 0, 0}},
		{"header-only-claims-one", []byte{1, 0, 0, 0}},
		{"truncated", good[:len(good)-1]},
		{"over-long", overLong},
		{"count-exceeds-payload", claimsMore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, refErr := addEncoded(NewDense(8), tc.buf)
			if refErr == nil {
				t.Fatal("reference accepted a malformed buffer")
			}
			var u Decoded
			if err := u.DecodeFrom(good); err != nil {
				t.Fatal(err)
			}
			err := u.DecodeFrom(tc.buf)
			if err == nil || err.Error() != refErr.Error() {
				t.Fatalf("DecodeFrom error %v, reference %v", err, refErr)
			}
			if err2 := DecodeInto(New(), tc.buf); err2 == nil || err2.Error() != refErr.Error() {
				t.Fatalf("DecodeInto error %v, reference %v", err2, refErr)
			}
			if u.Len() != 0 {
				t.Fatalf("failed decode left %d entries", u.Len())
			}
		})
	}
}

func FuzzDecodedMerge(f *testing.F) {
	r := xrand.New(43)
	f.Add([]byte(nil), uint16(8))
	f.Add(New().Encode(), uint16(0))
	f.Add(randomVector(r, 64, 20).Encode(), uint16(64))
	f.Add(randomVector(r, 64, 20).Encode(), uint16(16))
	f.Add(rawEncoding([]uint32{5, 5, 1}, []float64{1, -1, 2}), uint16(8))
	f.Add([]byte{2, 0, 0, 0, 1}, uint16(8))
	f.Fuzz(func(t *testing.T, buf []byte, dim uint16) {
		want := seededDense(uint64(dim), int(dim))
		got := want.Clone()
		wn, refErr := addEncoded(want, buf)
		var u Decoded
		err := u.DecodeFrom(buf)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("DecodeFrom error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if n := u.AddTo(got); n != wn {
			t.Fatalf("AddTo = %d, reference %d", n, wn)
		}
		if !sameBits(got, want) {
			t.Fatal("decoded merge differs from the streaming reference")
		}
	})
}

func TestDecodedDoesNotAllocate(t *testing.T) {
	r := xrand.New(23)
	v := randomVector(r, 100000, 1000)
	buf := v.Encode()
	small := randomVector(r, 100000, 10).Encode()
	d := NewDense(100000)
	var u Decoded
	if err := u.DecodeFrom(buf); err != nil { // reach capacity
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, b := range [][]byte{small, buf} {
			if err := u.DecodeFrom(b); err != nil {
				t.Fatal(err)
			}
			u.AddTo(d)
		}
	}); n != 0 {
		t.Fatalf("decode and merge allocated %v per run", n)
	}
}

func BenchmarkDecoded(b *testing.B) {
	r := xrand.New(35)
	buf := randomVector(r, 100000, 1000).Encode()
	d := NewDense(100000)
	var u Decoded
	if err := u.DecodeFrom(buf); err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := u.DecodeFrom(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			u.AddTo(d)
		}
	})
}
