// Package gpuserver is a miniature server package: the goroutineleak
// analyzer keys on the server package path suffixes.
package gpuserver

import "os"

type srv struct {
	ch   chan int
	done chan struct{}
	stop bool
}

type caller struct {
	sendCh    chan []byte
	writeDone chan struct{}
	writeErr  error
}

func write(b []byte) error { return nil }

// The headline case, planted in the TCP caller's writer: after a failed
// write it keeps draining "so senders never block" but never returns once
// the channel closes, so writeDone never closes and Close waits forever.
// Only a failed socket write gets there, and no tier-1 test makes one.
func (c *caller) start() {
	go c.writer() // want "can never be shut down"
}

func (c *caller) writer() {
	defer close(c.writeDone)
	for b := range c.sendCh {
		if err := write(b); err != nil {
			c.writeErr = err
			for {
				if _, ok := <-c.sendCh; ok {
					continue
				}
			}
		}
	}
}

func bad(s *srv) {
	go func() { // want "can never be shut down"
		for {
			<-s.ch
		}
	}()
	go func() { // want "can never be shut down"
		for {
			select {
			case <-s.ch:
				break // only exits the select, not the loop
			}
		}
	}()
}

func good(s *srv) {
	go func() {
		for {
			select {
			case <-s.ch:
			case <-s.done:
				return
			}
		}
	}()
	go func() {
		for v := range s.ch { // range over a channel ends when it closes
			_ = v
		}
	}()
	go func() {
		for {
			if s.stop {
				break
			}
		}
	}()
	go func() {
		for {
			if s.stop {
				os.Exit(1) // terminal calls count as an exit
			}
		}
	}()
	go s.loop() // named method resolves to its declaration below
}

func (s *srv) loop() {
	for {
		if _, ok := <-s.ch; !ok {
			return
		}
	}
}
