package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/client"
	"github.com/gpusampling/sieve/internal/obs"
)

// ringVnodes is the number of virtual points each replica contributes to the
// hash ring. 64 points per node keeps the keyspace split within a few percent
// of even for small clusters while the ring stays tiny (a handful of replicas
// × 64 points is a few KB, binary-searched per lookup).
const ringVnodes = 64

// ring is a consistent-hash ring over replica base URLs: a plan's content
// hash maps to the first virtual point clockwise, and that point's node owns
// the plan. Consistent hashing means adding or removing one replica remaps
// only the keys adjacent to its points instead of reshuffling the whole
// keyspace, so a rolling restart doesn't stampede every shard's cache.
//
// A nil *ring degrades gracefully to single-node operation: the local server
// owns everything and no request is ever proxied.
type ring struct {
	self   string
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// normalizePeerURL canonicalizes a replica base URL for ring membership:
// whitespace-trimmed, no trailing slash. Hash placement depends on the exact
// string, so every replica must spell the member list identically.
func normalizePeerURL(u string) string {
	return strings.TrimRight(strings.TrimSpace(u), "/")
}

// SplitPeers parses a comma-separated -peers flag value into normalized base
// URLs for SetPeers, dropping empties and duplicates while preserving
// first-seen order.
func SplitPeers(csv string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, p := range strings.Split(csv, ",") {
		p = normalizePeerURL(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// ringHash hashes a ring placement string (node#vnode or a plan key) to a
// point on the ring. sha256 keeps placement identical across replicas and
// architectures; only the first 8 bytes are used.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds the ring for self within peers. self is always a member even
// when absent from peers, so `-peers` may list either every replica or just
// the others. Fewer than two distinct members means no sharding: newRing
// returns nil and the caller serves everything locally.
func newRing(self string, peers []string) (*ring, error) {
	self = normalizePeerURL(self)
	members := make([]string, 0, len(peers)+1)
	seen := make(map[string]bool)
	add := func(u string) error {
		u = normalizePeerURL(u)
		if u == "" || seen[u] {
			return nil
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("peer %q: base URL must start with http:// or https://", u)
		}
		seen[u] = true
		members = append(members, u)
		return nil
	}
	for _, p := range peers {
		if err := add(p); err != nil {
			return nil, err
		}
	}
	if len(members) > 0 {
		if self == "" {
			return nil, fmt.Errorf("peers configured but self URL is empty: set -self to this replica's base URL")
		}
		if err := add(self); err != nil {
			return nil, err
		}
	}
	if len(members) < 2 {
		return nil, nil
	}
	r := &ring{self: self, nodes: members, points: make([]ringPoint, 0, len(members)*ringVnodes)}
	for _, node := range members {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", node, v)), node: node})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// owner returns the replica owning key: the node of the first ring point at
// or clockwise after the key's hash, wrapping at the top. A nil ring owns
// nothing remotely — the local node is always the owner.
func (r *ring) owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// ownedElsewhere reports the owning peer URL when key belongs to another
// replica, and false when this replica owns it (or no ring is configured).
func (r *ring) ownedElsewhere(key string) (string, bool) {
	o := r.owner(key)
	if o == "" || o == r.self {
		return "", false
	}
	return o, true
}

// forwardedHeader marks a request as already routed by a replica. A receiver
// always serves a forwarded request locally, so ring disagreement during a
// membership change cannot bounce a request between replicas forever.
const forwardedHeader = "X-Sieved-Forwarded"

func isForwarded(r *http.Request) bool { return r.Header.Get(forwardedHeader) != "" }

// planFromEnvelope extracts the plan document from a relayed
// api.PlanEnvelope body for a local cache fill. See fillDoc.
func planFromEnvelope(body []byte, id string) []byte {
	var env api.PlanEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil
	}
	return fillDoc(&env, id)
}

// fillDoc returns the plan document of a peer's envelope for id in the
// compact form json.Marshal gives a json.RawMessage: the bytes a local
// computation stores. Hits write stored bytes as they are, so a fill is
// normalized once here; an owner that answered with indented JSON still
// fills exactly what a local hit would serve. A mismatched plan_id (peer
// confusion) or a plan that is not a JSON object returns nil rather than
// poisoning the cache.
func fillDoc(env *api.PlanEnvelope, id string) []byte {
	if env.PlanID != id || len(env.Plan) == 0 {
		return nil
	}
	doc, err := json.Marshal(env.Plan)
	if err != nil || doc[0] != '{' {
		return nil
	}
	return doc
}

// peerClient builds the typed client for one owning replica. All peer
// traffic goes through the exported client package — no hand-rolled HTTP
// here. Retries are disabled: an unreachable owner should degrade to local
// compute immediately (a dead peer costs latency, not availability), not
// burn a retry budget first. The shared s.peer http.Client keeps one
// connection pool across owners.
func (s *Server) peerClient(owner string) (*client.Client, error) {
	return client.New(owner,
		client.WithHTTPClient(s.peer),
		client.WithTimeout(s.cfg.RequestTimeout),
		client.WithRetries(0),
		client.WithHeader(forwardedHeader, s.selfURL()),
	)
}

// proxySample forwards a resolved sample request to the owning replica and
// relays its response verbatim. It reports ok=false when the owner could not
// be reached (transport error), in which case the caller computes locally —
// graceful degradation. A reachable owner's answer is relayed whatever its
// status, and a successful plan also fills the local cache so the next
// identical request is a local hit (see fillDoc for what is discarded).
func (s *Server) proxySample(w http.ResponseWriter, ctx context.Context, rv *resolved, id, owner string) (int, bool) {
	pc, err := s.peerClient(owner)
	if err != nil {
		return 0, false
	}
	// The hop runs under a proxy-stage span and carries this request's trace
	// id, so the owner's trace of the forwarded request shares the id and the
	// cluster-wide path reassembles from the per-replica stores.
	pctx, span := obs.StartSpan(ctx, stageProxy)
	span.SetAttr("owner", owner)
	defer span.End()
	if tid := traceID(ctx); tid != "" {
		pctx = client.WithTraceID(pctx, tid)
	}
	status, respBody, err := pc.SampleRaw(pctx, rv.req)
	if err != nil {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("peer proxy failed, computing locally", "owner", owner, "error", err.Error())
		}
		return 0, false
	}
	s.metrics.PeerProxied.Add(1)
	if status == http.StatusOK {
		if doc := planFromEnvelope(respBody, id); doc != nil {
			s.cache.put(id, doc)
			s.metrics.PeerFills.Add(1)
		}
	} else {
		s.metrics.Failures.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(respBody)
	return status, true
}

// fetchPlanFromPeer retrieves a cached plan document from the owning replica
// for a local fill, normalized by fillDoc. Any failure — owner down, plan
// evicted there, mismatched plan_id, a plan that is not a JSON object —
// returns nil and the caller answers 404 as a single node would.
func (s *Server) fetchPlanFromPeer(ctx context.Context, owner, id string) []byte {
	pc, err := s.peerClient(owner)
	if err != nil {
		return nil
	}
	pctx, span := obs.StartSpan(ctx, stageProxy)
	span.SetAttr("owner", owner)
	defer span.End()
	if tid := traceID(ctx); tid != "" {
		pctx = client.WithTraceID(pctx, tid)
	}
	env, err := pc.GetPlan(pctx, id)
	if err != nil {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("peer plan fetch failed", "owner", owner, "error", err.Error())
		}
		return nil
	}
	return fillDoc(env, id)
}
