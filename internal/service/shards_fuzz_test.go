package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/evt"
	"repro/internal/fleet"
)

// shardManager is a Manager that accepts shards but runs none: it has a
// shard table and queue and no worker goroutines.
func shardManager() *Manager {
	cfg := ManagerConfig{}.withDefaults()
	return &Manager{
		cfg:        cfg,
		jobs:       make(map[string]*job),
		shards:     make(map[string]*shardJob),
		shardQueue: make(chan *shardJob, cfg.QueueDepth),
		sched:      newSched(cfg.QueueDepth, nil, nil),
		events:     make([]atomic.Int64, numEvents),
	}
}

// postShard sends body to POST /v1/shards and returns the status code
// and the response body.
func postShard(srv *Server, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shards", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// shardSeeds are FuzzShardRequest's seed bodies: every shard of a real
// fleet.Plan for the fleet tests' C432 job, and hostile bodies.
func shardSeeds(f *testing.F) [][]byte {
	job := []byte(`{"circuit":"C432","population":{"size":2000,"seed":5},"options":{"seed":13,"epsilon":0.03,"max_hyper_samples":24}}`)
	shards, err := fleet.Plan{Seed: 13, ShardSize: 3, MaxHyperSamples: 24}.Shards()
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, sh := range shards {
		b, err := json.Marshal(fleet.ShardRequest{ID: shardName(sh.Index), Job: job, Shard: sh})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	sh := shards[1]
	rng := fmt.Sprintf("[%d,%d,%d,%d]", sh.RNG[0], sh.RNG[1], sh.RNG[2], sh.RNG[3])
	shard := func(index, count int, rng string) string {
		return fmt.Sprintf(`{"index":%d,"start":3,"count":%d,"rng":%s}`, index, count, rng)
	}
	valid := shard(1, 3, rng)
	for _, body := range []string{
		`{"job":` + string(job) + `,"shard":` + valid + `}`,                                 // missing id
		`{"id":"s","job":"","shard":` + valid + `}`,                                         // empty job
		`{"id":"s","job":null,"shard":` + valid + `}`,                                       // null job
		`{"id":"s","shard":` + valid + `}`,                                                  // no job
		`{"id":"s","job":"C432 please","shard":` + valid + `}`,                              // non-JSON job
		`{"id":"s","job":{"circuit":"C432","seed":1},"shard":` + valid + `}`,                // unknown job field
		`{"id":"s","job":` + string(job) + `,"shard":` + shard(-1, 3, rng) + `}`,            // negative index
		`{"id":"s","job":` + string(job) + `,"shard":` + shard(1, 0, rng) + `}`,             // zero count
		`{"id":"s","job":` + string(job) + `,"shard":` + shard(1, 3, "[0,0,0,0]") + `}`,     // all-zero RNG
		`{"id":"s","job":` + string(job) + `,"shard":` + shard(1, math.MaxInt64, rng) + `}`, // past the budget
		`{"id":"s","job":` + string(job) + `,"shard":` + shard(1, 22, rng) + `}`,            // one past the budget
		// A budget past evt's bound, and a shard within it.
		`{"id":"s","job":{"circuit":"C432","options":{"max_hyper_samples":1000000000000}},"shard":` + shard(1, 1000000, rng) + `}`,
		`{"id":"s","job":` + string(job) + `,"shard":` + valid + `} trailing`,
		`{"id":"s","job":` + string(job) + `,"shard":` + valid + `,"extra":1}`,
		`[]`,
		``,
	} {
		seeds = append(seeds, []byte(body))
	}
	return seeds
}

func shardName(index int) string { return fmt.Sprintf("job-000001-s%d", index) }

// FuzzShardRequest drives POST /v1/shards, the unauthenticated shard
// submission, through Server.ServeHTTP on a Manager with no shard
// workers. Every body must get 202 with the request's ID, 400 with
// bad_json or invalid_request, or 503; none may panic. An accepted
// shard must pass Shard.Validate and its job decodeJobRequest, lie
// within the job's hyper-sample budget, which is at most evt's bound of
// 65,536, and come back with the worker's shard-pool size; the same body
// sent again must return the same shard without enqueueing it a second
// time.
func FuzzShardRequest(f *testing.F) {
	for _, b := range shardSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m := shardManager()
		srv := NewServer(m)
		code, resp := postShard(srv, body)
		switch code {
		case http.StatusAccepted:
		case http.StatusBadRequest:
			var e apiError
			if err := json.Unmarshal(resp, &e); err != nil || e.Error.Code != "bad_json" && e.Error.Code != "invalid_request" {
				t.Fatalf("%q: 400 with body %s", body, resp)
			}
			return
		case http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("%q: status %d, body %s", body, code, resp)
		}

		var req fleet.ShardRequest
		if err := unmarshalStrict(body, &req); err != nil {
			t.Fatalf("%q: accepted, but does not decode: %v", body, err)
		}
		var st fleet.ShardStatus
		if err := json.Unmarshal(resp, &st); err != nil || st.ID != req.ID || st.State != fleet.ShardQueued || st.Slots != m.cfg.Workers {
			t.Fatalf("%q: accepted with status %s (%v), want shard %q queued on %d slots", body, resp, err, req.ID, m.cfg.Workers)
		}
		s := m.shards[req.ID]
		if s == nil || len(m.shards) != 1 || len(m.shardQueue) != 1 {
			t.Fatalf("%q: accepted, but the table holds %d shards and the queue %d", body, len(m.shards), len(m.shardQueue))
		}
		if err := s.shard.Validate(); err != nil || s.shard != req.Shard {
			t.Fatalf("%q: accepted shard %+v (%v), request had %+v", body, s.shard, err, req.Shard)
		}
		job, _, err := decodeJobRequest(req.Job)
		if err != nil {
			t.Fatalf("%q: accepted a job that does not decode: %v", body, err)
		}
		budget := (evt.Config{MaxHyperSamples: job.Options.MaxHyperSamples}).Defaults().MaxHyperSamples
		if s.shard.Start > budget || s.shard.Count > budget-s.shard.Start {
			t.Fatalf("%q: accepted shard %+v past the job's budget of %d", body, s.shard, budget)
		}
		if budget > 1<<16 { // evt's bound on a run's budget
			t.Fatalf("%q: accepted a job budget of %d", body, budget)
		}

		again, resp2 := postShard(srv, body)
		var st2 fleet.ShardStatus
		if again != http.StatusAccepted || json.Unmarshal(resp2, &st2) != nil || st2.ID != req.ID {
			t.Fatalf("%q: resent, got %d %s", body, again, resp2)
		}
		if len(m.shards) != 1 || len(m.shardQueue) != 1 || m.shards[req.ID] != s {
			t.Fatalf("%q: resent, the table holds %d shards and the queue %d", body, len(m.shards), len(m.shardQueue))
		}
	})
}
