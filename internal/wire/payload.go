package wire

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// The byte-level backend (tcpnet) serializes every payload through the
// comm registry; this file plugs the sparse-chunk codecs in, which is what
// makes wire the load-bearing serializer for real transports: a chunk
// crossing a socket or an in-memory pipe is exactly the Encode/Decode byte
// stream, never a shared reference.

func init() {
	comm.RegisterPayload(comm.PayloadCodec{
		Tag:   comm.TagChunk,
		Match: func(v any) bool { _, ok := v.(*sparse.Chunk); return ok },
		Append: func(dst []byte, v any) []byte {
			c := v.(*sparse.Chunk)
			lo, hi := Range(c)
			// Encode straight into the caller's (pooled) buffer: no
			// intermediate allocation, no extra copy.
			out, _ := AppendEncode(dst, c, lo, hi)
			return out
		},
		Decode: func(body []byte) (any, error) { return Decode(body) },
		DecodeArena: func(a *sparse.Arena, body []byte) (any, error) {
			return DecodeArena(a, body)
		},
	})
	comm.RegisterPayload(comm.PayloadCodec{
		Tag:   comm.TagChunkSlice,
		Match: func(v any) bool { _, ok := v.([]*sparse.Chunk); return ok },
		Append: func(dst []byte, v any) []byte {
			cs := v.([]*sparse.Chunk)
			return comm.AppendPayloadList(dst, len(cs), func(i int) any { return cs[i] })
		},
		Decode: func(body []byte) (any, error) {
			return decodeChunkSlice(nil, body)
		},
		DecodeArena: func(a *sparse.Arena, body []byte) (any, error) {
			return decodeChunkSlice(a, body)
		},
	})
	comm.RegisterPayload(comm.PayloadCodec{
		Tag:   comm.TagSizedChunk,
		Match: func(v any) bool { _, ok := v.(*sizedChunk); return ok },
		Append: func(dst []byte, v any) []byte {
			// The payload is exactly the negotiated encoding — no size memo
			// prefix. The memoized size is a pure function of the entry set
			// (EncodedBytes over the tight range), so the receiver recomputes
			// the identical number and forwarding hops keep charging what the
			// owner accounted, without the 1-3 extra bytes a varint prefix
			// would put on the real wire.
			sc := v.(*sizedChunk)
			lo, hi := Range(sc.c)
			out, _ := AppendEncode(dst, sc.c, lo, hi)
			return out
		},
		Decode: func(body []byte) (any, error) {
			return decodeSizedChunk(nil, body)
		},
		DecodeArena: func(a *sparse.Arena, body []byte) (any, error) {
			return decodeSizedChunk(a, body)
		},
	})
}

// decodeChunkSlice reverses the TagChunkSlice body: a payload list of
// chunks, each decoded into the arena (heap on nil) with the pointer slice
// drawn from the arena's pointer slabs.
func decodeChunkSlice(a *sparse.Arena, body []byte) (any, error) {
	items, rest, err := comm.ReadPayloadListArena(a, body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after chunk slice", len(rest))
	}
	cs := a.Chunks(len(items)) // nil-safe: heap when a == nil
	for _, v := range items {
		c, ok := v.(*sparse.Chunk)
		if !ok {
			return nil, fmt.Errorf("wire: chunk slice holds %T", v)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// decodeSizedChunk reverses the TagSizedChunk body, recomputing the
// memoized size (a pure function of the entry set, so forwarding hops keep
// charging what the owner accounted).
func decodeSizedChunk(a *sparse.Arena, body []byte) (any, error) {
	c, err := DecodeArena(a, body)
	if err != nil {
		return nil, err
	}
	lo, hi := Range(c)
	n, _ := EncodedBytes(c, lo, hi)
	return &sizedChunk{c: c, bytes: n}, nil
}
