package server

import (
	"container/list"
	"sync"
)

// lru is a mutex-guarded least-recently-used map bounded by the summed cost
// of its entries. Each cache picks its own unit: the plan cache charges one
// per entry, the profile cache an estimate of the bytes an entry holds.
// Values are shared with every caller that gets them and must not be mutated.
type lru[V any] struct {
	mu    sync.Mutex
	max   int64
	used  int64
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

type lruEntry[V any] struct {
	key  string
	val  V
	cost int64
}

func newLRU[V any](max int64) *lru[V] {
	return &lru[V]{max: max, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the value cached under key and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts (or refreshes) key as the most recently used entry, then evicts
// least recently used entries until the total cost fits the bound. A value
// costing more than the whole bound is not kept, and the cache is left as it
// was.
func (c *lru[V]) put(key string, val V, cost int64) {
	if cost > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*lruEntry[V])
		c.used += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.byKey[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val, cost: cost})
		c.used += cost
	}
	for c.used > c.max {
		last := c.ll.Back()
		e := last.Value.(*lruEntry[V])
		c.ll.Remove(last)
		delete(c.byKey, e.key)
		c.used -= e.cost
	}
}

// len reports the current entry count.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cost reports the summed cost of the current entries.
func (c *lru[V]) cost() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// planCache is a content-hash-addressed LRU of marshaled plans, bounded by
// entry count. Keys are the canonical request hash (profile source + resolved
// options), so identical requests are computed once and every hit returns
// byte-identical plan JSON. Each entry holds the ready-to-send hit envelope,
// so a hit is one write with no encoding work. Stored bytes are immutable and
// shared with responders; they must not be mutated.
type planCache struct{ *lru[storedPlan] }

// storedPlan is one cached plan: the exact hit response body
// {"plan_id":"<id>","cached":true,"plan":<doc>}\n, and the plan document,
// which is a subslice of it rather than a second copy.
type storedPlan struct {
	hit []byte
	doc []byte
}

func newPlanCache(max int) *planCache {
	return &planCache{newLRU[storedPlan](int64(max))}
}

// put builds the hit envelope around doc, a compact plan document as
// json.Marshal produces it, and inserts (or refreshes) it, evicting the least
// recently used entry beyond capacity. It returns the stored plan, whose doc
// callers should hold instead of their own copy.
func (c *planCache) put(id string, doc []byte) storedPlan {
	hit := appendPlanEnvelope(make([]byte, 0, len(id)+len(doc)+envelopeSlack), id, true, false, doc)
	end := len(hit) - len("}\n")
	p := storedPlan{hit: hit, doc: hit[end-len(doc) : end : end]}
	c.lru.put(id, p, 1)
	return p
}
