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
	const alloc, limit = 4 << 10, 1 << 20
	// (write, session, offset from the allocation's base, size, vectored, owned)
	f.Add(false, true, int64(0), int64(-1), true, false)                 // read size -1
	f.Add(false, true, int64(0), int64(1)<<40, true, false)              // read size 1<<40
	f.Add(false, true, int64(0), int64(alloc+1), true, false)            // read extent + 1
	f.Add(false, true, int64(4000), int64(97), false, false)             // read interior past the end, inlined
	f.Add(true, true, int64(0), int64(2*alloc), true, true)              // write larger than the allocation
	f.Add(true, true, int64(0), int64(2*limit), true, false)             // write larger than the Hello limit
	f.Add(true, true, int64(2<<20), int64(16), true, true)               // freed pointer (the next reservation)
	f.Add(false, true, int64(-0x7f00_0000_0000), int64(16), true, false) // stray pointer
	f.Add(true, false, int64(0), int64(16), true, true)                  // no session
	f.Add(true, true, int64(0), int64(alloc), true, true)                // whole allocation, adopted
	f.Add(true, true, int64(4000), int64(96), false, false)              // interior to the end, inlined
	f.Add(false, true, int64(100), int64(1000), true, false)             // interior read
	f.Fuzz(func(t *testing.T, write, session bool, off, n int64, vec, owned bool) {
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
			resp, _, respBulk := gen.DispatchBulk(p, srv, enc.Bytes(), bulk, vec)
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
	})
}
