package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// --- auth-aware HTTP helpers ------------------------------------------

// doJSONKey is doJSON with an API key (sent as Authorization: Bearer)
// and the response headers, for Retry-After assertions.
func doJSONKey(t *testing.T, method, url, key string, body any, out any) (int, []byte, http.Header) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s: %v\nbody: %s", method, url, err, raw.String())
		}
	}
	return resp.StatusCode, raw.Bytes(), resp.Header
}

func submitJobKey(t *testing.T, srv *httptest.Server, key string, req JobRequest) string {
	t.Helper()
	var resp struct {
		ID string `json:"id"`
	}
	code, body, _ := doJSONKey(t, http.MethodPost, srv.URL+"/v1/jobs", key, req, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("submit as %q: status %d, body %s", key, code, body)
	}
	return resp.ID
}

func waitTerminalKey(t *testing.T, srv *httptest.Server, key, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		code, body, _ := doJSONKey(t, http.MethodGet, srv.URL+"/v1/jobs/"+id, key, nil, &st)
		if code != http.StatusOK {
			t.Fatalf("status %s as %q: %d, body %s", id, key, code, body)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func fetchResultKey(t *testing.T, srv *httptest.Server, key, id string) JobResult {
	t.Helper()
	var res JobResult
	if code, body, _ := doJSONKey(t, http.MethodGet, srv.URL+"/v1/jobs/"+id+"/result", key, nil, &res); code != http.StatusOK {
		t.Fatalf("result %s as %q: %d, body %s", id, key, code, body)
	}
	return res
}

// fakeClock is a mutex-guarded manual clock for ManagerConfig.Clock —
// rate-limit tests advance time explicitly and never sleep.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// --- token bucket unit tests ------------------------------------------

// TestBucketTakeRefill walks the submission bucket on a fake clock:
// burst drains, refusal reports a whole-second retry hint, refill
// restores, and idle time never overfills past the burst.
func TestBucketTakeRefill(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	b := newBucket(2, 4, t0) // 2 tokens/s, burst 4, starts full
	for i := 0; i < 4; i++ {
		if ok, _ := b.take(t0, 1); !ok {
			t.Fatalf("take %d within burst refused", i+1)
		}
	}
	ok, retry := b.take(t0, 1)
	if ok {
		t.Fatal("take beyond burst succeeded")
	}
	// Half a second of refill needed, reported as a whole second ≥ 1.
	if retry != time.Second {
		t.Errorf("retry = %v, want 1s (rounded up, minimum 1s)", retry)
	}
	// A refused take consumes nothing; half a second refills one token.
	if ok, _ := b.take(t0.Add(500*time.Millisecond), 1); !ok {
		t.Error("take after refill refused")
	}
	// An hour idle caps at the burst, not rate×3600.
	b.advance(t0.Add(time.Hour))
	if b.tokens != 4 {
		t.Errorf("tokens after long idle = %v, want burst cap 4", b.tokens)
	}
	// The clock never runs backwards through a stale observation.
	b.advance(t0)
	if b.tokens != 4 {
		t.Errorf("stale advance changed tokens to %v", b.tokens)
	}
}

// TestBucketPostPaidCharge pins the units-budget model: admission needs
// only a positive balance, charge may drive it negative, and the refill
// eventually restores admission.
func TestBucketPostPaidCharge(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	b := newBucket(10, 100, t0)
	if ok, _ := b.positive(t0); !ok {
		t.Fatal("full bucket not positive")
	}
	b.charge(t0, 600) // post-paid job cost: balance goes to -500
	if b.tokens != -500 {
		t.Fatalf("tokens after charge = %v, want -500", b.tokens)
	}
	ok, retry := b.positive(t0)
	if ok {
		t.Fatal("negative balance admitted")
	}
	// ~50s of refill to climb back above zero, in whole seconds.
	if retry < 45*time.Second || retry > 55*time.Second || retry%time.Second != 0 {
		t.Errorf("retry = %v, want ~50s in whole seconds", retry)
	}
	if ok, _ := b.positive(t0.Add(60 * time.Second)); !ok {
		t.Error("balance still negative after full refill window")
	}
}

// TestBucketNoRefillRetry: a zero-rate bucket that runs dry reports a
// long retry rather than dividing by zero.
func TestBucketNoRefillRetry(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	b := newBucket(0, 1, t0)
	if ok, _ := b.take(t0, 1); !ok {
		t.Fatal("initial take refused")
	}
	ok, retry := b.take(t0, 1)
	if ok || retry < time.Minute {
		t.Errorf("dry zero-rate bucket: ok=%v retry=%v, want refused with a long retry", ok, retry)
	}
}

// --- config loading and validation ------------------------------------

func TestLoadTenantsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	blob := `[
		{"name":"alice","key":"ka","weight":3,"submit_rate":2,"submit_burst":5,"queue_depth":4},
		{"name":"bob","key":"kb","units_rate":100}
	]`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	tenants, err := LoadTenantsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 || tenants[0].Name != "alice" || tenants[0].Weight != 3 || tenants[1].UnitsRate != 100 {
		t.Errorf("loaded tenants = %+v", tenants)
	}
	if _, err := LoadTenantsFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded without error")
	}
	bad := filepath.Join(dir, "bad.json")
	for _, blob := range []string{
		`{"not":"an array"`,
		// A misspelt key once dropped the limit it named: this tenant got
		// submit rate 0, which means no limit.
		`[{"name":"alice","key":"ka","submit_rte":2}]`,
		`[{"name":"alice","key":"ka"}] [{"name":"bob","key":"kb"}]`,
	} {
		os.WriteFile(bad, []byte(blob), 0o644)
		if tenants, err := LoadTenantsFile(bad); err == nil {
			t.Errorf("%s loaded without error: %+v", blob, tenants)
		}
	}
}

// TestTenantConfigRejected: NewManager refuses broken tenant tables
// before starting anything.
func TestTenantConfigRejected(t *testing.T) {
	cases := []struct {
		name    string
		tenants []TenantConfig
	}{
		{"empty name", []TenantConfig{{Key: "k"}}},
		{"empty key", []TenantConfig{{Name: "a"}}},
		{"negative rate", []TenantConfig{{Name: "a", Key: "k", SubmitRate: -1}}},
		{"duplicate name", []TenantConfig{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}},
		{"duplicate key", []TenantConfig{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewManager(ManagerConfig{Workers: 1, Tenants: tc.tenants}); err == nil {
				t.Error("broken tenant table accepted")
			}
		})
	}
}

// --- HTTP-level tenancy ------------------------------------------------

func twoTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "alice", Key: "alice-key"},
		{Name: "bob", Key: "bob-key"},
	}
}

// TestTenantIsolationHTTP: a tenant sees exactly its own jobs; another
// tenant's job is a plain 404 on every route — existence never leaks.
func TestTenantIsolationHTTP(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1, Tenants: twoTenants()})
	id := submitJobKey(t, srv, "alice-key", smallJob(501))

	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + id},
		{http.MethodGet, "/v1/jobs/" + id + "/result"},
		{http.MethodDelete, "/v1/jobs/" + id},
	} {
		var apiErr apiError
		code, body, _ := doJSONKey(t, route.method, srv.URL+route.path, "bob-key", nil, &apiErr)
		if code != http.StatusNotFound || apiErr.Error.Code != "not_found" {
			t.Errorf("%s %s as bob = %d %q, want 404 not_found; body %s",
				route.method, route.path, code, apiErr.Error.Code, body)
		}
	}

	var bobList struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code, _, _ := doJSONKey(t, http.MethodGet, srv.URL+"/v1/jobs", "bob-key", nil, &bobList); code != http.StatusOK || len(bobList.Jobs) != 0 {
		t.Errorf("bob's list = %d %+v, want 200 with no jobs", code, bobList.Jobs)
	}

	var aliceList struct {
		Jobs []JobStatus `json:"jobs"`
	}
	doJSONKey(t, http.MethodGet, srv.URL+"/v1/jobs", "alice-key", nil, &aliceList)
	if len(aliceList.Jobs) != 1 || aliceList.Jobs[0].Tenant != "alice" || aliceList.Jobs[0].Priority != "normal" {
		t.Errorf("alice's list = %+v, want her one normal-priority job", aliceList.Jobs)
	}

	if st := waitTerminalKey(t, srv, "alice-key", id); st.State != StateDone {
		t.Fatalf("alice's job = %s (%s), want done", st.State, st.Error)
	}

	// X-API-Key is an equivalent credential to the Bearer header.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+id, nil)
	req.Header.Set("X-API-Key", "alice-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("X-API-Key status fetch = %d, want 200", resp.StatusCode)
	}
}

// TestTenantSubmitRateLimit drives the submission bucket over HTTP on a
// fake clock: burst accepted, the next submission is a 429 rate_limited
// with Retry-After, and advancing the clock re-admits — no sleeps.
func TestTenantSubmitRateLimit(t *testing.T) {
	clock := newFakeClock()
	tenants := []TenantConfig{{Name: "alice", Key: "alice-key", SubmitRate: 1, SubmitBurst: 2}}
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1, Tenants: tenants, Clock: clock.Now})

	ids := []string{
		submitJobKey(t, srv, "alice-key", smallJob(601)),
		submitJobKey(t, srv, "alice-key", smallJob(602)),
	}

	var apiErr apiError
	code, body, hdr := doJSONKey(t, http.MethodPost, srv.URL+"/v1/jobs", "alice-key", smallJob(603), &apiErr)
	if code != http.StatusTooManyRequests || apiErr.Error.Code != codeRateLimited {
		t.Fatalf("over-rate submit = %d %q, body %s; want 429 rate_limited", code, apiErr.Error.Code, body)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q (1 token at 1/s)", ra, "1")
	}
	if s := serviceStats(t, srv); s.RateLimited != 1 {
		t.Errorf("rate_limited_total = %d, want 1", s.RateLimited)
	}

	clock.Advance(2 * time.Second)
	ids = append(ids, submitJobKey(t, srv, "alice-key", smallJob(603)))
	for _, id := range ids {
		if st := waitTerminalKey(t, srv, "alice-key", id); st.State != StateDone {
			t.Errorf("job %s = %s (%s), want done", id, st.State, st.Error)
		}
	}
}

// TestTenantUnitsQuota exercises the post-paid simulated-units budget: a
// tiny positive balance admits the first job, its real cost drives the
// balance negative, the next submission is a 429 quota_exceeded, and the
// refill (fake clock) restores admission.
func TestTenantUnitsQuota(t *testing.T) {
	clock := newFakeClock()
	tenants := []TenantConfig{{Name: "alice", Key: "alice-key", UnitsRate: 10, UnitsBurst: 5}}
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1, Tenants: tenants, Clock: clock.Now})

	id := submitJobKey(t, srv, "alice-key", smallJob(611))
	if st := waitTerminalKey(t, srv, "alice-key", id); st.State != StateDone {
		t.Fatalf("first job = %s (%s), want done", st.State, st.Error)
	}
	res := fetchResultKey(t, srv, "alice-key", id)
	if res.Units <= 5 {
		t.Fatalf("job cost %d units, too cheap to exceed the budget of 5", res.Units)
	}

	var apiErr apiError
	code, body, hdr := doJSONKey(t, http.MethodPost, srv.URL+"/v1/jobs", "alice-key", smallJob(612), &apiErr)
	if code != http.StatusTooManyRequests || apiErr.Error.Code != codeQuotaExceeded {
		t.Fatalf("over-quota submit = %d %q, body %s; want 429 quota_exceeded", code, apiErr.Error.Code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("quota refusal missing Retry-After")
	}
	if s := serviceStats(t, srv); s.QuotaExceeded != 1 {
		t.Errorf("quota_exceeded_total = %d, want 1", s.QuotaExceeded)
	}

	// Refill long enough to cover the debt; the balance re-caps at the
	// burst and the tenant is admitted again.
	clock.Advance(time.Duration(res.Units/10+2) * time.Second)
	id2 := submitJobKey(t, srv, "alice-key", smallJob(612))
	if st := waitTerminalKey(t, srv, "alice-key", id2); st.State != StateDone {
		t.Errorf("post-refill job = %s (%s), want done", st.State, st.Error)
	}
}

// TestTenantQueueDepth429: the per-tenant backlog bound answers 429
// tenant_queue_full (the service has room — that tenant is over its
// share) while another tenant keeps submitting.
func TestTenantQueueDepth429(t *testing.T) {
	srv, mgr := newTestServer(t, ManagerConfig{
		Workers: 1, QueueDepth: 16, Tenants: twoTenants(), TenantQueueDepth: 2,
	})
	gate, release := gateFirstProgress(mgr)

	plug := submitJobKey(t, srv, "alice-key", smallJob(621))
	<-gate // alice's plug occupies the single worker; her queue is empty
	ids := []string{
		submitJobKey(t, srv, "alice-key", smallJob(622)),
		submitJobKey(t, srv, "alice-key", smallJob(623)),
	}

	var apiErr apiError
	code, body, hdr := doJSONKey(t, http.MethodPost, srv.URL+"/v1/jobs", "alice-key", smallJob(624), &apiErr)
	if code != http.StatusTooManyRequests || apiErr.Error.Code != codeTenantQueueFull {
		t.Fatalf("over-depth submit = %d %q, body %s; want 429 tenant_queue_full", code, apiErr.Error.Code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("tenant_queue_full missing Retry-After")
	}

	// The per-tenant breakdown on /v1/stats sees alice's backlog.
	if s := serviceStats(t, srv); s.QueueDepthByFlow["alice"]["normal"] != 2 {
		t.Errorf("queue_depth_by_tenant = %v, want alice normal:2", s.QueueDepthByFlow)
	}

	// Bob is not over anything.
	ids = append(ids, submitJobKey(t, srv, "bob-key", smallJob(625)))

	close(release)
	for i, id := range append(ids, plug) {
		key := "alice-key"
		if i == 2 { // bob's job
			key = "bob-key"
		}
		if st := waitTerminalKey(t, srv, key, id); st.State != StateDone {
			t.Errorf("job %s = %s (%s), want done", id, st.State, st.Error)
		}
	}
}
