package frame

import "sync/atomic"

// Accountant tracks logical memory consumption of an execution: bytes of
// frames and materialized state currently held, and the high-water mark.
// It is safe for concurrent use.
type Accountant struct {
	current atomic.Int64
	peak    atomic.Int64
	limit   int64 // 0 = unlimited
}

// NewAccountant returns an accountant with an optional byte limit
// (0 = unlimited).
func NewAccountant(limit int64) *Accountant {
	return &Accountant{limit: limit}
}

// Allocate records n bytes of new consumption. It returns false when a limit
// is configured and the allocation would exceed it (the bytes are still
// recorded so the caller can report usage; callers treat false as
// out-of-memory).
func (a *Accountant) Allocate(n int64) bool {
	cur := a.current.Add(n)
	for {
		p := a.peak.Load()
		if cur <= p || a.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	return a.limit == 0 || cur <= a.limit
}

// Release records n bytes of freed consumption.
func (a *Accountant) Release(n int64) { a.current.Add(-n) }

// Current reports the bytes currently held.
func (a *Accountant) Current() int64 { return a.current.Load() }

// Peak reports the high-water mark.
func (a *Accountant) Peak() int64 { return a.peak.Load() }

// ResetPeak sets the peak back to the current consumption.
func (a *Accountant) ResetPeak() { a.peak.Store(a.current.Load()) }
