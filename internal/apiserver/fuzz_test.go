package apiserver

import (
	"testing"

	"dgsf/internal/cuda"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// FuzzDispatchBulkMem drives MemWrite and MemRead with guest-chosen pointers
// and sizes, through gen.DispatchBulk with a hand-built payload: with and
// without a session, vectored and inlined, the bulk region borrowed or given
// away. Whatever arrives, the server must not panic, must answer a successful
// read with exactly the bytes asked for, and must hold no byte outside the
// session's one live allocation.
func FuzzDispatchBulkMem(f *testing.F) {
	for _, s := range bulkMemSeeds {
		f.Add(s.write, s.session, s.off, s.n, s.vec, s.owned)
	}
	f.Fuzz(fuzzBulkMem)
}

const fuzzAlloc, fuzzLimit = 4 << 10, 1 << 20

// bulkMemSeeds is FuzzDispatchBulkMem's seed corpus.
var bulkMemSeeds = []struct {
	write, session bool
	off, n         int64 // offset from the allocation's base, size
	vec, owned     bool
}{
	{false, true, 0, -1, true, false},                 // read size -1
	{false, true, 0, 1 << 40, true, false},            // read size 1<<40
	{false, true, 0, fuzzAlloc + 1, true, false},      // read extent + 1
	{false, true, 4000, 97, false, false},             // read interior past the end, inlined
	{true, true, 0, 2 * fuzzAlloc, true, true},        // write larger than the allocation
	{true, true, 0, 2 * fuzzLimit, true, false},       // write larger than the Hello limit
	{true, true, 2 << 20, 16, true, true},             // freed pointer (the next reservation)
	{false, true, -0x7f00_0000_0000, 16, true, false}, // stray pointer
	{true, false, 0, 16, true, true},                  // no session
	{true, true, 0, fuzzAlloc, true, true},            // whole allocation, adopted
	{true, true, 4000, 96, false, false},              // interior to the end, inlined
	{false, true, 100, 1000, true, false},             // interior read
}

func fuzzBulkMem(t *testing.T, write, session bool, off, n int64, vec, owned bool) {
	const alloc, limit = fuzzAlloc, fuzzLimit
	if write && (n < 0 || n > 4*limit) {
		return // the size of a write is the length of real bytes
	}
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		srv, _ := simRig(e, p)
		ptr := cuda.DevPtr(0x7f00_0000_0000)
		if session {
			mustNil(t, srv.Hello(p, "fn", limit))
			a, err := srv.Malloc(p, alloc)
			mustNil(t, err)
			gone, err := srv.Malloc(p, alloc)
			mustNil(t, err)
			mustNil(t, srv.Free(p, gone))
			mustNil(t, srv.MemWrite(p, a+8, pattern(1, 64)))
			ptr = a
		}
		ptr += cuda.DevPtr(off)

		var enc wire.Encoder
		var bulk []byte
		if write {
			data := pattern(int(n), int(n))
			enc.U16(gen.CallMemWrite)
			if vec {
				(&gen.MemWriteReq{Dst: ptr}).EncodeMeta(&enc)
				bulk = data
			} else {
				(&gen.MemWriteReq{Dst: ptr, Data: data}).Encode(&enc)
			}
		} else {
			enc.U16(gen.CallMemRead)
			enc.Bool(vec)
			(&gen.MemReadReq{Src: ptr, Size: n}).Encode(&enc)
		}
		srv.lease = remoting.LeaseBulk(&remoting.Request{Bulk: bulk, BulkOwned: owned})
		resp, _, respBulk := gen.DispatchBulk(p, srv, enc.Bytes(), bulk)
		srv.lease = remoting.BulkLease{} // not recycled: the fuzzer's buffers stay out of the pools

		d := wire.NewDecoder(resp)
		code := d.I32()
		if d.Err() != nil {
			t.Fatalf("reply without a status: %v", resp)
		}
		if code == 0 && !write {
			got := respBulk
			if !vec {
				got = d.BytesField()
			}
			if int64(len(got)) != n {
				t.Fatalf("MemRead(base%+d, %d) returned %d bytes", off, n, len(got))
			}
		}
		if code == 0 && (!session || off < 0 || n < 0 || off > alloc || n > alloc-off) {
			t.Fatalf("call accepted: write %v, session %v, offset %d, size %d of a %d-byte allocation", write, session, off, n, alloc)
		}
		if srv.sess != nil {
			if allocs, _, held := srv.sess.mem.Held(); allocs > 1 || held > alloc {
				t.Fatalf("the store holds %d bytes of host memory for %d allocations; the session has %d in one", held, allocs, alloc)
			}
		}
	})
}
