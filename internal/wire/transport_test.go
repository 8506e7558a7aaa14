package wire

import (
	"math/rand"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/sparse"
)

func TestTransportModes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	chunks := []*sparse.Chunk{
		{},
		{Idx: []int32{9}, Val: []float32{2.5}},
		randomChunk(rng, 300, 5000),
		randomChunk(rng, 50, 100),
	}
	for _, c := range chunks {
		coo := Transport{}
		if got := coo.ChunkBytes(c); got != c.WireBytes() {
			t.Fatalf("COO mode charges %d, want the 8B/entry baseline %d", got, c.WireBytes())
		}
		pk, b := coo.Pack(c)
		if pk != any(c) || b != c.WireBytes() {
			t.Fatalf("COO Pack must pass the chunk through at baseline size")
		}

		neg := Transport{Mode: ModeNegotiated}
		lo, hi := Range(c)
		enc, _ := Encode(c, lo, hi)
		if got := neg.ChunkBytes(c); got != len(enc) {
			t.Fatalf("negotiated mode charges %d, want encoded size %d", got, len(enc))
		}
		if pk, _ := neg.Pack(c); pk != any(c) {
			t.Fatal("negotiated Pack must not materialize buffers")
		}

		encT := Transport{Mode: ModeEncoded}
		pk, b = encT.Pack(c)
		buf, ok := pk.([]byte)
		if !ok {
			t.Fatalf("encoded Pack returned %T, want []byte", pk)
		}
		if b != len(buf) || b != neg.ChunkBytes(c) {
			t.Fatalf("encoded size %d must equal negotiated accounting %d", b, neg.ChunkBytes(c))
		}
		got := encT.Unpack(pk)
		assertEqual(t, got, c)
		// ItemBytes must size both packed forms identically.
		if encT.ItemBytes(pk) != b || neg.ItemBytes(c) != b {
			t.Fatal("ItemBytes disagrees across packed forms")
		}

		// All-gather items: every mode must charge the same as Pack, with
		// the size memoized so forwarding hops never re-scan, and Unpack
		// must reverse every item form.
		for _, tx := range []Transport{coo, neg, encT} {
			it := tx.PackItem(c)
			if tx.ItemBytes(it) != tx.ChunkBytes(c) {
				t.Fatalf("mode %v: PackItem sized %d, want %d", tx.Mode, tx.ItemBytes(it), tx.ChunkBytes(c))
			}
			assertEqual(t, tx.Unpack(it), c)
		}
	}
}

func TestTransportSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cs := []*sparse.Chunk{
		randomChunk(rng, 40, 400),
		{},
		randomChunk(rng, 200, 1000),
	}
	for _, mode := range []Mode{ModeCOO, ModeNegotiated, ModeEncoded} {
		tx := Transport{Mode: mode}
		pk, total := tx.PackSlice(cs)
		want := 0
		for _, c := range cs {
			want += tx.ChunkBytes(c)
		}
		if total != want {
			t.Fatalf("%v: PackSlice charged %d, want summed %d", mode, total, want)
		}
		back := tx.UnpackSlice(pk)
		if len(back) != len(cs) {
			t.Fatalf("%v: got %d chunks back, want %d", mode, len(back), len(cs))
		}
		for i := range cs {
			assertEqual(t, back[i], cs[i])
		}
	}
}

func TestTransportNegotiatedNeverWorseThanCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	neg := Transport{Mode: ModeNegotiated}
	for i := 0; i < 100; i++ {
		c := randomChunk(rng, 400, 100+rng.Intn(8000))
		lo, hi := Range(c)
		if neg.ChunkBytes(c) > COOBytes(c.Len(), lo, hi) {
			t.Fatalf("negotiated %d exceeds headered COO %d", neg.ChunkBytes(c), COOBytes(c.Len(), lo, hi))
		}
		if neg.ChunkBytes(c) > c.WireBytes()+HeaderLen(c.Len(), lo, hi) {
			t.Fatalf("negotiated %d exceeds COO baseline %d + header", neg.ChunkBytes(c), c.WireBytes())
		}
	}
}

// Regression: a negotiated-mode message must never put more bytes on the
// real wire than the same chunk sent in COO mode. Both travel through the
// comm payload registry as their negotiated encoding; the sized-chunk
// wrapper used to prepend a size-memo varint, inflating every negotiated
// message by 1-3 bytes over the COO-mode framing of the identical chunk.
func TestSizedChunkFramingNoOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	neg := Transport{Mode: ModeNegotiated}
	for i := 0; i < 100; i++ {
		c := randomChunk(rng, 400, 100+rng.Intn(8000))
		it := neg.PackItem(c)
		sized, ok := it.(*sizedChunk)
		if !ok {
			t.Fatalf("negotiated PackItem returned %T", it)
		}
		asNegotiated := comm.MarshalPayload(sized)
		asCOO := comm.MarshalPayload(c)
		if len(asNegotiated) > len(asCOO) {
			t.Fatalf("negotiated framing %d bytes > COO framing %d", len(asNegotiated), len(asCOO))
		}
		// The receiver must recompute exactly the size the owner accounted.
		back, err := comm.UnmarshalPayloadArena(nil, asNegotiated)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := back.(*sizedChunk)
		if !ok {
			t.Fatalf("decoded %T, want *sizedChunk", back)
		}
		if got.bytes != sized.bytes {
			t.Fatalf("receiver recomputed %d bytes, owner accounted %d", got.bytes, sized.bytes)
		}
		assertEqual(t, got.c, c)
	}
}
