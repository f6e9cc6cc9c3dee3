package service

import (
	"fmt"
	"os"
	"time"
)

// Multi-tenancy (PR 8). Tenants are named API-key principals with a
// weighted-fair share of the worker pool and optional token-bucket
// limits over submissions and simulated units. Configuring zero tenants
// keeps the pre-tenant behavior bit for bit: no authentication, one
// anonymous flow, no rate limits.

// TenantConfig declares one tenant, normally loaded from the
// -tenants-file JSON array.
type TenantConfig struct {
	// Name identifies the tenant in stats, journal records, and errors.
	Name string `json:"name"`
	// Key is the tenant's API key (Authorization: Bearer <key> or
	// X-API-Key: <key>).
	Key string `json:"key"`
	// Weight is the tenant's weighted-fair share of the worker pool
	// relative to other tenants (0 = 1). A weight-3 tenant drains jobs
	// three times as often as a weight-1 tenant when both have backlog.
	Weight int `json:"weight,omitempty"`
	// SubmitRate and SubmitBurst shape the submission token bucket:
	// SubmitRate refills per second up to SubmitBurst. Rate 0 = no
	// submission limit. Burst 0 = max(1, ceil(rate)).
	SubmitRate  float64 `json:"submit_rate,omitempty"`
	SubmitBurst int     `json:"submit_burst,omitempty"`
	// UnitsRate and UnitsBurst budget simulated units ("# of units", the
	// paper's cost metric). The bucket is post-paid: a submission only
	// needs a positive balance, and the job's actual units are charged
	// when it finishes — the balance may go negative, which blocks
	// further submissions until the refill catches up. Rate 0 = no
	// units budget. Burst 0 = rate·60 (a one-minute burst window).
	UnitsRate  float64 `json:"units_rate,omitempty"`
	UnitsBurst float64 `json:"units_burst,omitempty"`
	// QueueDepth bounds this tenant's queued (not yet running) jobs
	// (0 = the manager-wide TenantQueueDepth default).
	QueueDepth int `json:"queue_depth,omitempty"`
}

func (tc TenantConfig) validate() error {
	if tc.Name == "" {
		return fmt.Errorf("service: tenant with empty name")
	}
	if tc.Key == "" {
		return fmt.Errorf("service: tenant %s has no api key", tc.Name)
	}
	if tc.Weight < 0 || tc.SubmitRate < 0 || tc.SubmitBurst < 0 ||
		tc.UnitsRate < 0 || tc.UnitsBurst < 0 || tc.QueueDepth < 0 {
		return fmt.Errorf("service: tenant %s has a negative limit", tc.Name)
	}
	return nil
}

// LoadTenantsFile reads a JSON array of TenantConfig from path — the
// -tenants-file flag's loader. It decodes as strictly as request bodies
// are: a misspelt key would otherwise drop its limit, and a limit of 0
// means none.
func LoadTenantsFile(path string) ([]TenantConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: tenants file: %w", err)
	}
	var tenants []TenantConfig
	if err := unmarshalStrict(b, &tenants); err != nil {
		return nil, fmt.Errorf("service: tenants file %s: %w", path, err)
	}
	return tenants, nil
}

// RateLimitError is the structured refusal returned by SubmitAs when a
// tenant is over a limit; the server maps it to 429 with a Retry-After
// header. Code distinguishes the submission bucket ("rate_limited")
// from the units budget ("quota_exceeded").
type RateLimitError struct {
	Code       string
	Tenant     string
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	what := "submission rate limit"
	if e.Code == codeQuotaExceeded {
		what = "simulated-units budget"
	}
	return fmt.Sprintf("service: tenant %s over %s (retry in %s)", e.Tenant, what, e.RetryAfter.Round(time.Millisecond))
}

// bucket is a token bucket with an explicit clock (all methods take
// now, so tenant tests run on a fake clock). The balance may go
// negative through charge — the post-paid units model.
type bucket struct {
	tokens float64
	cap    float64
	rate   float64 // tokens per second
	last   time.Time
}

func newBucket(rate, capacity float64, now time.Time) *bucket {
	return &bucket{tokens: capacity, cap: capacity, rate: rate, last: now}
}

// advance refills for the elapsed time since the last observation.
func (b *bucket) advance(now time.Time) {
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += b.rate * dt.Seconds()
		if b.tokens > b.cap {
			b.tokens = b.cap
		}
	}
	if now.After(b.last) {
		b.last = now
	}
}

// take removes n tokens if the full amount is available; otherwise it
// removes nothing and reports how long until it would be.
func (b *bucket) take(now time.Time, n float64) (bool, time.Duration) {
	b.advance(now)
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	return false, b.until(n)
}

// positive reports whether the balance is positive (the post-paid
// admission test) and, when it is not, how long until it would be.
func (b *bucket) positive(now time.Time) (bool, time.Duration) {
	b.advance(now)
	if b.tokens > 0 {
		return true, 0
	}
	return false, b.until(1e-9)
}

// charge deducts n tokens unconditionally; the balance may go negative.
func (b *bucket) charge(now time.Time, n float64) {
	b.advance(now)
	b.tokens -= n
}

// until returns the refill time needed to reach n tokens, rounded up to
// a whole second (the Retry-After granularity), at least 1s.
func (b *bucket) until(n float64) time.Duration {
	if b.rate <= 0 {
		return time.Hour // no refill: effectively "come back much later"
	}
	d := time.Duration((n - b.tokens) / b.rate * float64(time.Second))
	if r := d.Round(time.Second); r >= d && r >= time.Second {
		return r
	}
	return d.Truncate(time.Second) + time.Second
}

// tenantState is one tenant's runtime limiter state. Buckets are nil
// when the corresponding limit is off.
type tenantState struct {
	cfg    TenantConfig
	submit *bucket
	units  *bucket
}

func newTenantState(tc TenantConfig, now time.Time) *tenantState {
	ts := &tenantState{cfg: tc}
	if tc.SubmitRate > 0 {
		burst := float64(tc.SubmitBurst)
		if burst <= 0 {
			burst = tc.SubmitRate
			if burst < 1 {
				burst = 1
			}
		}
		ts.submit = newBucket(tc.SubmitRate, burst, now)
	}
	if tc.UnitsRate > 0 {
		burst := tc.UnitsBurst
		if burst <= 0 {
			burst = tc.UnitsRate * 60
		}
		ts.units = newBucket(tc.UnitsRate, burst, now)
	}
	return ts
}

func (ts *tenantState) weight() float64 {
	if ts == nil || ts.cfg.Weight <= 0 {
		return 1
	}
	return float64(ts.cfg.Weight)
}

// admit runs the tenant's submission checks under the manager lock:
// one submission token, and a positive units balance.
func (ts *tenantState) admit(now time.Time) *RateLimitError {
	if ts == nil {
		return nil
	}
	if ts.submit != nil {
		if ok, retry := ts.submit.take(now, 1); !ok {
			return &RateLimitError{Code: codeRateLimited, Tenant: ts.cfg.Name, RetryAfter: retry}
		}
	}
	if ts.units != nil {
		if ok, retry := ts.units.positive(now); !ok {
			return &RateLimitError{Code: codeQuotaExceeded, Tenant: ts.cfg.Name, RetryAfter: retry}
		}
	}
	return nil
}
