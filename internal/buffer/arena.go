package buffer

import (
	"sync"
	"sync/atomic"
)

// Arena recycles track-sized byte buffers through a sync.Pool so the
// steady-state data path stops allocating one slice per track read. It
// is distinct from Pool: Pool is the paper's track-count *accounting*
// (capacity and peak, §5's buffer-space penalty), Arena is the Go-level
// byte-buffer recycler underneath it. The two compose — engines acquire
// accounting from a Pool and bytes from an Arena.
//
// Ownership rule: a buffer obtained from Get/GetZeroed is owned by the
// caller until it is passed to Put, after which it must not be touched.
// Put-then-read is the use-after-free of this design; the race detector
// will not catch it (the pool hands buffers out data-race-free), so the
// engines follow a strict acquire-at-read, release-at-delivery
// discipline documented in DESIGN.md.
type Arena struct {
	trackSize int
	pool      sync.Pool
	// headers recycles the *[]byte boxes pool stores buffers in: Get
	// parks the box it emptied here and Put refills one, so neither
	// heap-allocates a slice header in steady state.
	headers sync.Pool
	gets    atomic.Int64
	puts    atomic.Int64
	news    atomic.Int64
}

// NewArena creates an arena handing out buffers of exactly trackSize
// bytes. A nil *Arena is valid: Get allocates fresh and Put discards.
func NewArena(trackSize int) *Arena {
	a := &Arena{trackSize: trackSize}
	a.pool.New = func() any {
		a.news.Add(1)
		b := make([]byte, trackSize)
		return &b
	}
	return a
}

// TrackSize returns the buffer size this arena hands out.
func (a *Arena) TrackSize() int {
	if a == nil {
		return 0
	}
	return a.trackSize
}

// Get returns a track-sized buffer with undefined contents. Callers that
// fully overwrite the buffer (track reads, parity folds with an initial
// copy) should use Get; XOR accumulators need GetZeroed.
func (a *Arena) Get() []byte {
	if a == nil {
		return nil
	}
	a.gets.Add(1)
	box := a.pool.Get().(*[]byte)
	buf := *box
	*box = nil
	a.headers.Put(box)
	return buf
}

// GetZeroed returns a track-sized buffer with every byte zero, for use
// as an XOR accumulator.
func (a *Arena) GetZeroed() []byte {
	buf := a.Get()
	clear(buf)
	return buf
}

// Put returns a buffer to the arena. nil buffers and buffers of the
// wrong size (e.g. slices that came from somewhere else) are ignored, so
// callers can Put unconditionally at their release points. After Put the
// caller must not touch the buffer again.
func (a *Arena) Put(buf []byte) {
	if a == nil || buf == nil || len(buf) != a.trackSize {
		return
	}
	a.puts.Add(1)
	box, _ := a.headers.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = buf
	a.pool.Put(box)
}

// Stats reports lifetime counters: buffers handed out, buffers returned,
// and fresh allocations made because the pool was empty. gets - news is
// the number of recycled hand-outs.
func (a *Arena) Stats() (gets, puts, news int64) {
	if a == nil {
		return 0, 0, 0
	}
	return a.gets.Load(), a.puts.Load(), a.news.Load()
}
