package sim

// Ring is a FIFO queue on a circular buffer: the run queue, the items and
// waiters of every Queue and Cond, and the op queue a step process serves (a
// CUDA stream's). Its zero value is empty. The buffer starts as first, a
// slot inside the ring itself, so a ring that never holds more than one
// element — a fresh Queue's first item, waiter and hand-off — allocates
// nothing. Past that it doubles when full and is kept when the queue
// drains, so a queue in steady state pushes and pops without allocating.
// Pop and removeAt zero the slot they vacate, and growing zeroes the buffer
// it leaves: no buffer keeps a dequeued value — a request and its bulk
// payload, a finished process — reachable, the inline slot, which lives as
// long as the ring, included. A Ring must not be copied once used: its
// buffer may point into itself.
type Ring[T any] struct {
	buf   []T // len(buf) is zero or a power of two
	head  int // index of the oldest element
	n     int // number of elements
	first [1]T
}

// Len returns the number of elements.
func (r *Ring[T]) Len() int { return r.n }

// slot returns the buffer slot of the i-th oldest element.
func (r *Ring[T]) slot(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Push appends v.
func (r *Ring[T]) Push(v T) {
	switch {
	case r.buf == nil:
		r.buf = r.first[:]
	case r.n == len(r.buf):
		buf := make([]T, 2*len(r.buf))
		for i := 0; i < r.n; i++ {
			buf[i] = *r.slot(i)
		}
		clear(r.buf)
		r.buf, r.head = buf, 0
	}
	r.n++
	*r.slot(r.n - 1) = v
}

// Pop removes and returns the oldest element.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	var zero T
	s := r.slot(0)
	v, *s = *s, zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v, true
}

// removeAt removes the i-th oldest element, keeping the order of the rest.
func (r *Ring[T]) removeAt(i int) {
	for ; i < r.n-1; i++ {
		*r.slot(i) = *r.slot(i + 1)
	}
	var zero T
	*r.slot(r.n - 1) = zero
	r.n--
}

// removeProc takes p out of a waiter set.
func removeProc(r *Ring[*Proc], p *Proc) {
	for i := 0; i < r.n; i++ {
		if *r.slot(i) == p {
			r.removeAt(i)
			return
		}
	}
}
