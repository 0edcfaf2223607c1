// Package kvstore implements the functional bulk-synchronous parameter
// server shard of the Poseidon reproduction: a set of KV pairs (2 MB
// parameter chunks), per-pair update counting, apply-on-complete, and
// broadcast-when-counted semantics, exactly as Section 4.1 describes.
//
// A Shard is a passive state machine — the trainer (or a server
// goroutine) feeds it pushes and ships the broadcasts it emits — so the
// same logic runs unmodified over the in-process and TCP meshes.
//
// The push path is allocation-flat: worker contributions are copied
// into per-pair scratch buffers recycled across rounds, so a
// steady-state training run folds every round without growing the heap.
package kvstore

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// pair is one KV pair plus all of its accumulation state. Scratch
// buffers (round sets, contribution copies, the fold accumulator) are
// recycled through per-pair free lists — every buffer a pair ever needs
// has the same length as its value, so reuse always fits exactly.
type pair struct {
	val []float32
	// Counted-mode state (Push): a plain accumulator and arrival count.
	acc   []float32
	count int
	// Round-mode state (PushRound*): per-round buffered contributions,
	// folded in worker-id order on completion.
	rounds     map[int]*roundSet
	freeRounds []*roundSet
	freeBufs   [][]float32
	fold       []float32
	version    int
}

// roundSet buffers one round's per-worker contributions.
type roundSet struct {
	contrib [][]float32 // indexed by worker id; nil = not yet pushed
	count   int
}

func (p *pair) getRound(workers int) *roundSet {
	if n := len(p.freeRounds); n > 0 {
		rs := p.freeRounds[n-1]
		p.freeRounds = p.freeRounds[:n-1]
		return rs
	}
	return &roundSet{contrib: make([][]float32, workers)}
}

func (p *pair) getBuf() []float32 {
	if n := len(p.freeBufs); n > 0 {
		b := p.freeBufs[n-1]
		p.freeBufs = p.freeBufs[:n-1]
		return b
	}
	return make([]float32, len(p.val))
}

// Shard holds one server's slice of the globally shared parameters.
type Shard struct {
	mu      sync.Mutex
	workers int
	pairs   map[string]*pair
	// metrics, when set, counts buffered pushes and folded rounds.
	metrics *metrics.KVStats
}

// NewShard creates a shard expecting pushes from the given number of
// workers per iteration.
func NewShard(workers int) *Shard {
	if workers <= 0 {
		panic("kvstore: need at least one worker")
	}
	return &Shard{workers: workers, pairs: make(map[string]*pair)}
}

// SetMetrics attaches live counters for shard activity. Call before
// the shard starts receiving pushes; pass nil to detach.
func (s *Shard) SetMetrics(k *metrics.KVStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = k
}

// Init installs the initial value of a KV pair. Every worker must use
// identical initial values (the trainer seeds them identically).
func (s *Shard) Init(key string, vals []float32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := &pair{
		val:    make([]float32, len(vals)),
		acc:    make([]float32, len(vals)),
		rounds: make(map[int]*roundSet),
	}
	copy(p.val, vals)
	s.pairs[key] = p
}

func (s *Shard) lookup(key string, update []float32) (*pair, error) {
	p, ok := s.pairs[key]
	if !ok {
		return nil, fmt.Errorf("kvstore: unknown key %q", key)
	}
	if len(update) != len(p.val) {
		return nil, fmt.Errorf("kvstore: key %q: update len %d != %d", key, len(update), len(p.val))
	}
	return p, nil
}

// Push applies one worker's additive update to the pair's accumulator.
// When updates from all workers have arrived it folds the accumulator
// into the parameters, bumps the version, and returns the fresh
// parameter values (ready=true) for broadcasting; the caller owns the
// returned slice.
func (s *Shard) Push(key string, update []float32) (fresh []float32, ready bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.lookup(key, update)
	if err != nil {
		return nil, false, err
	}
	for i, v := range update {
		p.acc[i] += v
	}
	p.count++
	if s.metrics != nil {
		s.metrics.CountPush()
	}
	if p.count < s.workers {
		return nil, false, nil
	}
	// All workers reported: apply and reset for the next iteration.
	for i := range p.val {
		p.val[i] += p.acc[i]
		p.acc[i] = 0
	}
	p.count = 0
	p.version++
	if s.metrics != nil {
		s.metrics.CountRound(len(p.val))
	}
	out := make([]float32, len(p.val))
	copy(out, p.val)
	return out, true, nil
}

// PushRound is Push with an explicit iteration tag and pushing worker,
// for bounded staleness (SSP) execution: updates from different
// iterations may interleave on a key, and each round folds into the
// parameters when its own count completes. Per-worker push order
// guarantees round r completes before round r+1.
func (s *Shard) PushRound(key string, round, worker int, update []float32) (fresh []float32, ready bool, err error) {
	return s.PushRoundInto(key, round, worker, update, nil)
}

// PushRoundInto is PushRound appending the fresh values into dst
// instead of allocating — the hot path for chunked synchronization,
// where a round completes on some chunk nearly every inbound message
// and the caller re-encodes (and is then done with) the result
// immediately.
//
// Contributions are buffered per worker and folded in worker-id order
// when the round completes, so the result is bit-identical whatever
// order the transport delivered the pushes in. A worker pushing the
// same (key, round) twice is a protocol violation and errors.
//
// The shard copies update into recycled per-pair scratch, so the caller
// keeps ownership and may reuse the slice immediately — decode paths
// feed the same scratch buffer in for every message.
func (s *Shard) PushRoundInto(key string, round, worker int, update, dst []float32) (fresh []float32, ready bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.lookup(key, update)
	if err != nil {
		return nil, false, err
	}
	if worker < 0 || worker >= s.workers {
		return nil, false, fmt.Errorf("kvstore: key %q: push from worker %d of %d", key, worker, s.workers)
	}
	rs := p.rounds[round]
	if rs == nil {
		rs = p.getRound(s.workers)
		p.rounds[round] = rs
	}
	if rs.contrib[worker] != nil {
		return nil, false, fmt.Errorf("kvstore: key %q: worker %d pushed twice in round %d", key, worker, round)
	}
	buf := p.getBuf()
	copy(buf, update)
	rs.contrib[worker] = buf
	rs.count++
	if s.metrics != nil {
		s.metrics.CountPush()
	}
	if rs.count < s.workers {
		// Hand dst back so the caller's scratch buffer survives the
		// not-ready pushes between round completions.
		return dst, false, nil
	}
	if cap(p.fold) < len(p.val) {
		p.fold = make([]float32, len(p.val))
	}
	acc := p.fold[:len(p.val)]
	clear(acc)
	for w, u := range rs.contrib { // worker-id order: deterministic fold
		for i, v := range u {
			acc[i] += v
		}
		p.freeBufs = append(p.freeBufs, u)
		rs.contrib[w] = nil
	}
	for i := range p.val {
		p.val[i] += acc[i]
	}
	rs.count = 0
	p.freeRounds = append(p.freeRounds, rs)
	delete(p.rounds, round)
	p.version++
	if s.metrics != nil {
		s.metrics.CountRound(len(p.val))
	}
	return append(dst, p.val...), true, nil
}

// Remove deletes a KV pair and all of its accumulation state — the
// route-handoff path: when a replan barrier moves a parameter off the
// PS, the retiring syncer removes the chunks its shard owned. Callers
// must have drained the pair's in-flight rounds first (a removed pair
// with pending contributions would silently drop updates); the comm
// layer's planned barrier guarantees exactly that. Removing an unknown
// key is a no-op.
func (s *Shard) Remove(key string) {
	s.mu.Lock()
	delete(s.pairs, key)
	s.mu.Unlock()
}

// Get returns a copy of the current parameter values (for checkpointing
// and tests).
func (s *Shard) Get(key string) ([]float32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pairs[key]
	if !ok {
		return nil, false
	}
	out := make([]float32, len(p.val))
	copy(out, p.val)
	return out, true
}

// Version returns how many complete update rounds the pair has folded.
func (s *Shard) Version(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.pairs[key]; ok {
		return p.version
	}
	return 0
}

// Keys returns the shard's keys, sorted (for deterministic checkpoints).
func (s *Shard) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ks []string
	for k := range s.pairs {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Checkpoint snapshots every KV pair (Section 4.1: the KV store
// "regularly checkpoints current parameter states for fault tolerance").
func (s *Shard) Checkpoint() map[string][]float32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]float32, len(s.pairs))
	for k, p := range s.pairs {
		cp := make([]float32, len(p.val))
		copy(cp, p.val)
		out[k] = cp
	}
	return out
}

// Restore loads a checkpoint produced by Checkpoint, resetting all
// pending accumulation (counted and per-round alike).
func (s *Shard) Restore(ck map[string][]float32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pairs = make(map[string]*pair, len(ck))
	for k, vals := range ck {
		p := &pair{
			val:    make([]float32, len(vals)),
			acc:    make([]float32, len(vals)),
			rounds: make(map[int]*roundSet),
		}
		copy(p.val, vals)
		s.pairs[k] = p
	}
}
