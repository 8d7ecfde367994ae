package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestCacheConcurrentPutGet hammers the LRU from many goroutines under
// -race: concurrent puts, gets and len calls over a key space larger than
// the capacity, so insertion, promotion and eviction all interleave. Every
// successful get must return exactly the bytes put for that key, inside the
// hit envelope built for it.
func TestCacheConcurrentPutGet(t *testing.T) {
	const (
		capacity   = 8
		keys       = 32
		goroutines = 16
		rounds     = 200
	)
	c := newPlanCache(capacity)
	body := func(k int) []byte { return []byte(fmt.Sprintf("plan-%d", k)) }

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (g*rounds + r) % keys
				id := fmt.Sprintf("key-%d", k)
				switch r % 3 {
				case 0:
					c.put(id, body(k))
				case 1:
					if p, ok := c.get(id); ok {
						if !bytes.Equal(p.doc, body(k)) {
							t.Errorf("get(%s).doc = %q, want %q", id, p.doc, body(k))
						}
						if want := appendPlanEnvelope(nil, id, true, false, body(k)); !bytes.Equal(p.hit, want) {
							t.Errorf("get(%s).hit = %q, want %q", id, p.hit, want)
						}
					}
				default:
					if n := c.len(); n < 0 || n > capacity {
						t.Errorf("len = %d, want 0..%d", n, capacity)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.len(); n != capacity {
		t.Fatalf("final len = %d, want %d (saturated)", n, capacity)
	}
}

// TestCacheRefreshKeepsOneEntry: re-putting an existing key must refresh in
// place, not duplicate, and serve the newest bytes.
func TestCacheRefreshKeepsOneEntry(t *testing.T) {
	c := newPlanCache(4)
	c.put("a", []byte("v1"))
	c.put("a", []byte("v2"))
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	p, ok := c.get("a")
	if !ok || string(p.doc) != "v2" {
		t.Fatalf("get = %q %v, want v2", p.doc, ok)
	}
}

// TestCacheLRUOrderUnderGets: a get promotes its entry, so filling past
// capacity evicts the least recently *used*, not the least recently put.
func TestCacheLRUOrderUnderGets(t *testing.T) {
	c := newPlanCache(2)
	c.put("a", []byte("a"))
	c.put("b", []byte("b"))
	c.get("a") // promote a; b is now coldest
	c.put("c", []byte("c"))
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
}

// TestCacheDocSharesHitEnvelope: the stored plan document is a subslice of
// the hit envelope, not a second copy, and cannot be appended into it.
func TestCacheDocSharesHitEnvelope(t *testing.T) {
	c := newPlanCache(1)
	doc := []byte(`{"theta":0.4}`)
	p := c.put("abc", doc)
	if got, want := string(p.hit), `{"plan_id":"abc","cached":true,"plan":{"theta":0.4}}`+"\n"; got != want {
		t.Fatalf("hit = %q, want %q", got, want)
	}
	if string(p.doc) != string(doc) {
		t.Fatalf("doc = %q, want %q", p.doc, doc)
	}
	if &p.doc[0] != &p.hit[len(p.hit)-2-len(doc)] {
		t.Fatal("doc is a copy, not a subslice of the hit envelope")
	}
	if cap(p.doc) != len(p.doc) {
		t.Fatalf("cap(doc) = %d, want %d: an append could overwrite the envelope", cap(p.doc), len(p.doc))
	}
}

// TestLRUAttach: attach charges an entry only while it still holds the
// value asked about, carries no attachment and the charge fits beside the
// other entries; a put that needs room drops attachments, least recently
// used entry first, before it evicts an entry, and an entry whose
// attachment was dropped takes no other.
func TestLRUAttach(t *testing.T) {
	a, b, c := new(int), new(int), new(int)
	drops := map[string]int{}
	dropper := func(key string) func() { return func() { drops[key]++ } }
	l := newLRU[*int](20)
	l.put("a", a, 4)
	l.put("b", b, 4)
	for _, tc := range []struct {
		key   string
		val   *int
		extra int64
	}{{"missing", a, 1}, {"b", a, 1}, {"a", a, 13}} {
		if attach(l, tc.key, tc.val, tc.extra, dropper(tc.key)) {
			t.Fatalf("attach(%s, %d) agreed: missing key, another value or no room", tc.key, tc.extra)
		}
	}
	if !attach(l, "a", a, 6, dropper("a")) || !attach(l, "b", b, 6, dropper("b")) || l.cost() != 20 {
		t.Fatalf("attachments that fit were refused (cost %d)", l.cost())
	}
	if attach(l, "a", a, 0, dropper("a")) {
		t.Fatal("a second attachment to one entry was accepted")
	}
	l.get("a")       // b is now the least recently used
	l.put("c", c, 4) // 24 > 20: drops b's attachment only
	if drops["b"] != 1 || drops["a"] != 0 || l.len() != 3 || l.cost() != 18 {
		t.Fatalf("after a put past the bound: drops %v, %d entries, cost %d; want b's dropped, 3, 18", drops, l.len(), l.cost())
	}
	if attach(l, "b", b, 1, dropper("b")) {
		t.Fatal("an entry whose attachment was dropped took another")
	}
	l.put("a", c, 4) // a refreshed entry carries no attachment
	if l.cost() != 12 || !attach(l, "a", c, 2, dropper("a")) {
		t.Fatalf("after refreshing a: cost %d, or attach refused; want 12 and accepted", l.cost())
	}
}
