package core

// sample is one ingested stream row with its arrival position (the index
// golden-cycle arrays are addressed by) and its reservoir priority.
type sample struct {
	row InvocationProfile
	pos int
	pri uint64
}

// reservoir keeps a deterministic bounded uniform sample of a kernel's rows:
// the cap rows with the smallest priority hash ("bottom-k" priority
// sampling). Because the priority is a pure function of (seed, row index),
// membership is independent of arrival order. Until the cap is exceeded the
// reservoir simply holds every row, so small kernels stay exact.
type reservoir struct {
	cap        int
	rows       []sample
	heaped     bool // rows is a max-heap ordered by worse()
	overflowed bool // at least one row was seen beyond cap
}

// priority hashes a row's index with the seed (splitmix64 finalizer). The
// golden-ratio multiply decorrelates consecutive indices before mixing.
func priority(seed uint64, index int) uint64 {
	x := seed ^ (uint64(index) * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// worse reports whether a should be evicted before b (higher priority loses;
// index breaks the astronomically unlikely hash tie deterministically).
func worse(a, b sample) bool {
	if a.pri != b.pri {
		return a.pri > b.pri
	}
	return a.row.Index > b.row.Index
}

func (r *reservoir) add(s sample) {
	if len(r.rows) < r.cap {
		r.rows = append(r.rows, s)
		return
	}
	r.overflowed = true
	if !r.heaped {
		r.heapify()
	}
	if worse(s, r.rows[0]) {
		return
	}
	r.rows[0] = s
	r.siftDown(0)
}

// heapify establishes the max-heap property (worst sample at the root).
func (r *reservoir) heapify() {
	for i := len(r.rows)/2 - 1; i >= 0; i-- {
		r.siftDown(i)
	}
	r.heaped = true
}

func (r *reservoir) siftDown(i int) {
	n := len(r.rows)
	for {
		l, rt := 2*i+1, 2*i+2
		worst := i
		if l < n && worse(r.rows[l], r.rows[worst]) {
			worst = l
		}
		if rt < n && worse(r.rows[rt], r.rows[worst]) {
			worst = rt
		}
		if worst == i {
			return
		}
		r.rows[i], r.rows[worst] = r.rows[worst], r.rows[i]
		i = worst
	}
}
