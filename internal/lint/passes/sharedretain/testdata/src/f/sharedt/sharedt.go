// Package sharedt exercises the sharedretain analyzer: retention of
// shared-decode results, of requests populated in place by DecodeShared,
// and of backend parameters listed in gen.SharedDecodeParams.
package sharedt

import (
	"strings"

	"f/internal/cuda"
	"f/internal/remoting"
	"f/internal/remoting/gen"
	"f/internal/remoting/wire"
	"f/internal/sim"
)

type srv struct {
	names []string
	buf   []byte
	devs  []cuda.DevPtr
	cache map[string][]string
}

var gBuf []byte

// --- positives ---

func storeNamesField(s *srv, d *wire.Decoder) {
	names := d.StrsShared()
	s.names = names // want "result of StrsShared aliases the decoder's scratch (dead once the decoder is released or reused) and must not be retained (store to field)"
}

func returnShared(d *wire.Decoder) []string {
	return d.StrsShared() // want "result of StrsShared aliases the decoder's scratch (dead once the decoder is released or reused) and must not be returned"
}

func storeGlobal(d *wire.Decoder) {
	gBuf = d.BytesShared() // want "result of BytesShared aliases the decoder's scratch (dead once the decoder is released or reused) and must not be retained (store to package-level variable)"
}

func storeMutates(s *srv, d *wire.Decoder) {
	lp := d.LaunchShared()
	s.devs = lp.Mutates // want "result of LaunchShared aliases the decoder's scratch (dead once the decoder is released or reused) and must not be retained (store to field)"
}

func sendShared(d *wire.Decoder, ch chan []string) {
	names := d.StrsShared()
	ch <- names // want "must not be retained (channel send)"
}

func goShared(d *wire.Decoder) {
	names := d.StrsShared()
	go func() { // want "must not be retained (goroutine capture)"
		_ = names[0]
	}()
}

func cacheShared(s *srv, d *wire.Decoder) {
	names := d.StrsShared()
	s.cache["last"] = names // want "must not be retained (store into map/slice element)"
}

func retainReqField(s *srv, d *wire.Decoder) {
	var req gen.RegisterKernelsReq
	req.DecodeShared(d)
	s.names = req.Names // want "request decoded in place by DecodeShared aliases the decoder's scratch (dead once the decoder is released or reused) and must not be retained (store to field)"
}

func (s *srv) RegisterKernels(p *sim.Proc, names []string) ([]cuda.FnPtr, error) {
	s.names = names // want "parameter names of RegisterKernels (shared-decoded request field Names) aliases the decoder's scratch"
	return nil, nil
}

func (s *srv) MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) error {
	s.buf = data // want "parameter data of MemWrite (shared-decoded request field Data) aliases the decoder's scratch"
	return nil
}

func (s *srv) LaunchKernel(p *sim.Proc, lp cuda.LaunchParams) error {
	s.devs = lp.Mutates // want "parameter lp of LaunchKernel (shared-decoded request field LP) aliases the decoder's scratch"
	return nil
}

type libs struct {
	kernels map[string]string
	last    string
	devs    []cuda.DevPtr
}

// A primitive's name arrives as a view of the request buffer: it may be
// looked up, and kept only as a copy; its buffers are decoder scratch.
func (l *libs) DnnForward(p *sim.Proc, h uint64, op string, dur int64, bufs []cuda.DevPtr, descs []uint64) error {
	if _, ok := l.kernels[op]; !ok {
		l.kernels[op] = "cudnn::" + op // want "parameter op of DnnForward (shared-decoded request field Op) aliases the decoder's scratch"
	}
	l.last = op   // want "parameter op of DnnForward (shared-decoded request field Op) aliases the decoder's scratch"
	l.devs = bufs // want "parameter bufs of DnnForward (shared-decoded request field Bufs) aliases the decoder's scratch"
	return nil
}

func (l *libs) BlasGemm(p *sim.Proc, h uint64, dur int64, bufs []cuda.DevPtr) error {
	l.devs = append(l.devs[:0], bufs...) // elements are plain integers: a copy
	return nil
}

func storeOpView(l *libs, d *wire.Decoder) {
	l.last = d.StrShared()     // want "result of StrShared aliases the decoder's scratch (dead once the decoder is released or reused) and must not be retained (store to field)"
	l.devs = d.DevPtrsShared() // want "result of DevPtrsShared aliases the decoder's scratch (dead once the decoder is released or reused) and must not be retained (store to field)"
}

func cloneOpView(l *libs, d *wire.Decoder) {
	l.last = strings.Clone(d.StrShared())
}

type srv2 struct {
	names []string
}

// A shallow append copies the slice header array but the strings still
// point into decoder scratch.
func (s *srv2) RegisterKernels(p *sim.Proc, names []string) ([]cuda.FnPtr, error) {
	s.names = append([]string(nil), names...) // want "parameter names of RegisterKernels (shared-decoded request field Names) aliases the decoder's scratch"
	return nil, nil
}

var stash []string

func keep(names []string) { stash = names }

func helperEscape(d *wire.Decoder) {
	names := d.StrsShared()
	keep(names) // want "keep retains its argument"
}

// The ownership claim returns its argument. Only for the parameter the
// generated table names (MemWrite's data, inside MemWrite) can that argument
// have been handed over; a shared decode pushed through it is still the
// decoder's.
func claimSharedDecode(s *srv, l *remoting.BulkLease, d *wire.Decoder) {
	b := d.BytesShared()
	s.buf = l.Claim(b) // want "result of BytesShared aliases the decoder's scratch (dead once the decoder is released or reused) and must not be retained (store to field)"
}

type claimSrv struct {
	lease remoting.BulkLease
	buf   []byte
}

// Claiming does not launder the parameter itself: the borrowed arm still
// may not store it.
func (s *claimSrv) MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) error {
	if owned := s.lease.Claim(data); owned == nil {
		s.buf = data // want "parameter data of MemWrite (shared-decoded request field Data) aliases the decoder's scratch"
	}
	return nil
}

// --- negatives ---

type adoptSrv struct {
	lease remoting.BulkLease
	buf   []byte
}

// The adopt path: what the claim returns for MemWrite's data is the buffer
// the transport gave away, the handler's own to install; a borrowed one is
// copied.
func (s *adoptSrv) MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) error {
	if owned := s.lease.Claim(data); owned != nil {
		s.buf = owned
	} else {
		s.buf = append(s.buf[:0], data...)
	}
	return nil
}

type okSrv struct {
	names []string
	devs  []cuda.DevPtr
	str   string
}

// Cloning every element before the store produces an owned slice.
func (s *okSrv) RegisterKernels(p *sim.Proc, names []string) ([]cuda.FnPtr, error) {
	cloned := make([]string, len(names))
	for i := range names {
		cloned[i] = strings.Clone(names[i])
	}
	s.names = cloned
	return nil, nil
}

// A string conversion copies the bytes.
func (s *okSrv) MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) error {
	s.str = string(data)
	return nil
}

// DevPtr is shallow-safe, so the append deep-copies.
func (s *okSrv) LaunchKernel(p *sim.Proc, lp cuda.LaunchParams) error {
	s.devs = append([]cuda.DevPtr(nil), lp.Mutates...)
	return nil
}

// Reading the shared value before the decoder moves on is the intended use.
func transientUse(d *wire.Decoder) int {
	names := d.StrsShared()
	total := 0
	for _, n := range names {
		total += len(n)
	}
	return total
}

// The copying decode variants return owned values.
func copyingDecode(s *srv, d *wire.Decoder) {
	s.names = d.Strs()
}

func measure(names []string) int { return len(names) }

// Passing the shared value to a callee that only reads it is fine.
func dispatchOnly(d *wire.Decoder) int {
	names := d.StrsShared()
	return measure(names)
}
