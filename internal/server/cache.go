package server

import (
	"container/list"
	"sync"
)

// planCache is a content-hash-addressed LRU of marshaled plans. Keys are the
// canonical request hash (profile source + resolved options), so identical
// requests are computed once and every hit returns byte-identical plan JSON.
// Each entry holds the ready-to-send hit envelope, so a hit is one write with
// no encoding work. Stored bytes are immutable and shared with responders;
// they must not be mutated.
type planCache struct {
	mu   sync.Mutex
	max  int
	ll   *list.List // front = most recently used
	byID map[string]*list.Element
}

// storedPlan is one cached plan: the exact hit response body
// {"plan_id":"<id>","cached":true,"plan":<doc>}\n, and the plan document,
// which is a subslice of it rather than a second copy.
type storedPlan struct {
	hit []byte
	doc []byte
}

type cacheEntry struct {
	id   string
	plan storedPlan
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, ll: list.New(), byID: make(map[string]*list.Element)}
}

// get returns the cached plan and marks it most recently used.
func (c *planCache) get(id string) (storedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byID[id]
	if !ok {
		return storedPlan{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).plan, true
}

// put builds the hit envelope around doc, a compact plan document as
// json.Marshal produces it, and inserts (or refreshes) it, evicting the least
// recently used entry beyond capacity. It returns the stored plan, whose doc
// callers should hold instead of their own copy.
func (c *planCache) put(id string, doc []byte) storedPlan {
	hit := appendPlanEnvelope(make([]byte, 0, len(id)+len(doc)+envelopeSlack), id, true, false, doc)
	end := len(hit) - len("}\n")
	p := storedPlan{hit: hit, doc: hit[end-len(doc) : end : end]}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byID[id]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).plan = p
		return p
	}
	c.byID[id] = c.ll.PushFront(&cacheEntry{id: id, plan: p})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byID, last.Value.(*cacheEntry).id)
	}
	return p
}

// len reports the current entry count.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
