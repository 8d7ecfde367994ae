package sampler

import (
	"context"
	"sync"
	"unsafe"

	"github.com/gpusampling/sieve/internal/core"
)

// Size estimate of a memoized core.Result, for MemoBytes: a fixed part (the
// Result and its two empty row-index maps) plus, per profile row, its entry
// in each index map, its member index, and at most one Stratum.
const (
	memoFixedBytes = 512
	memoRowBytes   = 2*24 + 8 + int64(unsafe.Sizeof(core.Stratum{}))
)

// MemoBytes is the most a filled memo over a profile of rows rows is
// estimated to hold: what a cache charges when it admits the memo (see
// Memoize).
func MemoBytes(rows int) int64 {
	return memoFixedBytes + int64(rows)*memoRowBytes
}

// stratifyMemo holds a shared profile's last base stratification:
// core.StratifyContext of the profile's rows under one option tuple. The
// seed is not an input, so every request for the tuple can share it. One
// slot is enough: sieved's workload-mode clients plan one workload at one θ
// across methods and seeds, and another tuple replaces it.
type stratifyMemo struct {
	mu      sync.Mutex
	key     core.Options           // the options with Parallelism cleared
	res     *core.Result           // nil while empty
	admit   func(drop func()) bool // nil once admitted
	dropped bool                   // drop was called: keep nothing more
}

// Memoize makes p keep the last base stratification Stratify computes, so
// every later call with the same options shares one result. admit, when not
// nil, is asked before the memo first keeps a result, and reports whether
// it may: a cache admits the memo only while MemoBytes fits its budget
// beside the profiles it holds, and calls drop, which empties the memo for
// good, to reclaim those bytes before it evicts a profile. Until admit
// agrees, every call stratifies afresh and asks again. Memoize must be
// called before p is shared; a profile without a memo stratifies afresh on
// every call.
func Memoize(p *Profile, admit func(drop func()) bool) {
	p.memo = &stratifyMemo{admit: admit}
}

// Memoized reports whether p's memo keeps a base stratification.
func Memoized(p *Profile) bool {
	if p.memo == nil {
		return false
	}
	p.memo.mu.Lock()
	defer p.memo.mu.Unlock()
	return p.memo.res != nil
}

// drop empties the memo and keeps it empty.
func (m *stratifyMemo) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.res, m.admit, m.dropped = nil, nil, true
}

// Stratify returns the base Sieve stratification of p's rows:
// core.StratifyContext(ctx, p.Rows, opts). A memoized profile computes it
// once per option tuple in a row; Parallelism is not part of the tuple,
// since plans are byte-identical at any parallelism. Every other field is,
// so options that make core fail are never found in the memo, and no error
// is kept. Concurrent first calls may each compute the result; one is kept.
//
// A memoized result is shared by every caller and must not be mutated.
func (p *Profile) Stratify(ctx context.Context, opts core.Options) (*core.Result, error) {
	m := p.memo
	if m == nil {
		return core.StratifyContext(ctx, p.Rows, opts)
	}
	key := opts
	key.Parallelism = 0
	m.mu.Lock()
	res, admit := m.res, m.admit
	hit := res != nil && m.key == key
	m.mu.Unlock()
	if hit {
		return res, nil
	}
	res, err := core.StratifyContext(ctx, p.Rows, opts)
	if err != nil {
		return nil, err
	}
	// admit runs without m.mu: a cache calls drop under its own lock.
	if admit != nil && !admit(m.drop) {
		return res, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dropped {
		m.key, m.res, m.admit = key, res, nil
	}
	return res, nil
}
