package server

// Client is the Go-side of the wire protocol, shared by cmd/dopia-load,
// the cluster router, and the test suite. It is a thin, honest mapping:
// one method per endpoint, errors carry the HTTP status and the
// server's ErrorResponse fields. Retries are opt-in: with a RetryPolicy
// installed, retryable backpressure (429 queue-full, 503 draining) is
// absorbed with capped exponential backoff and deterministic jitter,
// honoring the server's Retry-After as a floor. Without one, nothing is
// retried and callers decide their own policy from APIError.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// APIError is a non-2xx response from the daemon.
type APIError struct {
	Status       int
	Message      string
	Stage        string
	RetryAfterMS int64
}

func (e *APIError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("server returned %d (stage %s): %s", e.Status, e.Stage, e.Message)
	}
	return fmt.Sprintf("server returned %d: %s", e.Status, e.Message)
}

// IsRetryable reports whether the error is admission backpressure (429)
// or draining (503) — conditions a client may retry after a pause.
func (e *APIError) IsRetryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// RetryPolicy shapes the client's backoff on retryable (429/503)
// responses: capped exponential with deterministic jitter, never
// sleeping less than the server's Retry-After.
type RetryPolicy struct {
	// MaxAttempts bounds total tries including the first (default 5).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps one backoff step (default 5s). A larger Retry-After
	// from the server still wins: the header is a floor, not a hint.
	MaxDelay time.Duration
	// Seed drives the jitter PRNG, so a load generator's backoff
	// schedule replays exactly.
	Seed int64
}

func (p *RetryPolicy) fillDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
}

// Client talks to one dopia-serve daemon (or a dopia-router, which
// speaks the same protocol).
type Client struct {
	base string
	hc   *http.Client

	retryMu sync.Mutex
	retry   *RetryPolicy
	rng     *rand.Rand
	retries atomic.Int64
}

// NewClient creates a client for the daemon at base (e.g.
// "http://127.0.0.1:8080"). hc == nil uses http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// SetRetryPolicy installs (or, with nil, removes) automatic backoff on
// retryable responses.
func (c *Client) SetRetryPolicy(p *RetryPolicy) {
	c.retryMu.Lock()
	defer c.retryMu.Unlock()
	if p == nil {
		c.retry, c.rng = nil, nil
		return
	}
	cp := *p
	cp.fillDefaults()
	c.retry = &cp
	c.rng = rand.New(rand.NewSource(cp.Seed))
}

// Retries reports how many requests were re-sent after backoff.
func (c *Client) Retries() int64 { return c.retries.Load() }

// backoffDelay computes the sleep before retry number attempt (0 = the
// first retry): exponential in attempt with full jitter on the upper
// half, floored at the server's Retry-After.
func (c *Client) backoffDelay(p *RetryPolicy, attempt int, retryAfterMS int64) time.Duration {
	step := p.BaseDelay << attempt
	if step > p.MaxDelay || step <= 0 {
		step = p.MaxDelay
	}
	delay := step/2 + time.Duration(c.rng.Int63n(int64(step/2)+1))
	if ra := time.Duration(retryAfterMS) * time.Millisecond; ra > delay {
		delay = ra
	}
	return delay
}

// do sends one request (retrying per the policy) and decodes the JSON
// response into out.
func (c *Client) do(method, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		raw, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding %s %s: %w", method, path, err)
		}
	}
	return c.doRaw(method, path, raw, out)
}

// doRaw sends pre-encoded JSON bytes (retrying per the policy). Callers
// that forward one logical request to several nodes (the cluster
// router's primary + replica mirror) encode once and reuse the bytes.
func (c *Client) doRaw(method, path string, raw []byte, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.doOnce(method, path, raw, out)
		if err == nil {
			return nil
		}
		apiErr, ok := err.(*APIError)
		if !ok || !apiErr.IsRetryable() {
			return err
		}
		c.retryMu.Lock()
		p := c.retry
		var delay time.Duration
		if p != nil && attempt+1 < p.MaxAttempts {
			delay = c.backoffDelay(p, attempt, apiErr.RetryAfterMS)
		}
		c.retryMu.Unlock()
		if p == nil || attempt+1 >= p.MaxAttempts {
			return err
		}
		c.retries.Add(1)
		time.Sleep(delay)
	}
}

// doOnce posts (or gets, raw == nil and method GET/DELETE) one request.
func (c *Client) doOnce(method, path string, raw []byte, out any) error {
	var rd io.Reader
	if raw != nil {
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if raw != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var er ErrorResponse
		msg := ""
		if derr := json.NewDecoder(resp.Body).Decode(&er); derr == nil {
			msg = er.Error
		}
		apiErr := &APIError{Status: resp.StatusCode, Message: msg, Stage: er.Stage, RetryAfterMS: er.RetryAfterMS}
		if apiErr.RetryAfterMS == 0 {
			// The header is authoritative when the body carries no hint
			// (e.g. plain proxies); seconds per RFC 9110.
			if sec, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && sec > 0 {
				apiErr.RetryAfterMS = int64(sec) * 1000
			}
		}
		return apiErr
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	body, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return err
	}
	if kb, ok := out.(*keepBody); ok {
		kb.body, out = body, kb.v
	}
	return decodeJSON(body, out)
}

// keepBody is an out that decodes into v and keeps the body's bytes.
type keepBody struct {
	v    any
	body []byte
}

// Compile registers OpenCL C source and returns its program ID.
func (c *Client) Compile(source string) (*ProgramResponse, error) {
	var out ProgramResponse
	if err := c.do("POST", "/v1/programs", &ProgramRequest{Source: source}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// NewSession creates a tenant session and returns its ID.
func (c *Client) NewSession() (string, error) {
	var out SessionResponse
	if err := c.do("POST", "/v1/sessions", struct{}{}, &out); err != nil {
		return "", err
	}
	return out.SessionID, nil
}

// NewSessionWithID creates a session under a caller-chosen ID (409 if
// it exists). The cluster router uses this to place one logical session
// on primary and replica nodes.
func (c *Client) NewSessionWithID(id string) error {
	return c.do("POST", "/v1/sessions", &SessionRequest{SessionID: id}, nil)
}

// CloseSession releases a session.
func (c *Client) CloseSession(id string) error {
	return c.do("DELETE", "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// CreateBuffer materializes a named buffer inside a session.
func (c *Client) CreateBuffer(sessionID string, req *BufferRequest) error {
	return c.do("POST", "/v1/sessions/"+url.PathEscape(sessionID)+"/buffers", req, nil)
}

// ReadBuffer snapshots a session buffer's content.
func (c *Client) ReadBuffer(sessionID, name string) (*BufferData, error) {
	out, _, err := c.ReadBufferRaw(sessionID, name)
	return out, err
}

// ReadBufferRaw is ReadBuffer that also returns the response body's
// bytes, for a relay to pass on unchanged.
func (c *Client) ReadBufferRaw(sessionID, name string) (*BufferData, []byte, error) {
	out := keepBody{v: new(BufferData)}
	path := "/v1/sessions/" + url.PathEscape(sessionID) + "/buffers/" + url.PathEscape(name)
	if err := c.do("GET", path, nil, &out); err != nil {
		return nil, nil, err
	}
	return out.v.(*BufferData), out.body, nil
}

// ExportSession snapshots a session for replication or migration.
func (c *Client) ExportSession(id string) (*SessionExport, error) {
	var out SessionExport
	if err := c.do("GET", "/v1/sessions/"+url.PathEscape(id)+"/export", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ImportSession materializes a session from an export, replacing any
// session with the same ID.
func (c *Client) ImportSession(exp *SessionExport) error {
	return c.do("POST", "/v1/sessions/import", exp, nil)
}

// Launch enqueues one ND-range launch and waits for its outcome.
func (c *Client) Launch(req *LaunchRequest) (*LaunchResponse, error) {
	var out LaunchResponse
	if err := c.do("POST", "/v1/launch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// LaunchRaw enqueues a launch from pre-encoded JSON bytes, skipping the
// per-hop re-encode, and returns the response with its body's bytes, for
// a relay to pass on unchanged. The request must already carry the
// idempotency key if the caller intends to reuse it across nodes.
func (c *Client) LaunchRaw(req []byte) (*LaunchResponse, []byte, error) {
	out := keepBody{v: new(LaunchResponse)}
	if err := c.doRaw("POST", "/v1/launch", req, &out); err != nil {
		return nil, nil, err
	}
	return out.v.(*LaunchResponse), out.body, nil
}

// Healthz reads the daemon's liveness summary. It answers 200 even
// while draining; use Readyz for routing decisions.
func (c *Client) Healthz() (*HealthResponse, error) {
	var out HealthResponse
	if err := c.do("GET", "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Readyz reads the readiness gate: an error with status 503 means the
// node is draining or not yet joined and must leave the routing ring.
func (c *Client) Readyz() (*ReadyResponse, error) {
	var out ReadyResponse
	if err := c.doOnce("GET", "/readyz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw text metrics page.
func (c *Client) Metrics() (string, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: /metrics returned %d", resp.StatusCode)
	}
	return string(raw), nil
}
