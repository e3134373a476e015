package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dopia/internal/server"
)

// TestLostSessionDoesNotCondemnMember: a session closed behind the
// router's back makes its primary answer 404 "no session". That is one
// session's problem: it fails over and stays bit-exact, and the member —
// which is healthy — keeps every other placement and is never declared
// dead.
func TestLostSessionDoesNotCondemnMember(t *testing.T) {
	h := newHarness(t, 4, 8)
	for iter := 0; iter < 3; iter++ {
		h.launchRound(iter)
	}
	h.waitReplicated()

	victim := h.sids[0]
	member := h.primaryOf(victim)
	before := map[string]string{}
	for _, sid := range h.sids[1:] {
		before[sid] = h.primaryOf(sid)
	}
	if err := h.l.Router.client(member).CloseSession(victim); err != nil {
		t.Fatal(err)
	}

	for iter := 3; iter < 6; iter++ {
		h.launchRound(iter)
	}
	// Several janitor ticks, so a death verdict would have been acted on.
	time.Sleep(8 * 50 * time.Millisecond)
	h.launchRound(6)
	h.verifyFinal()

	if got := h.primaryOf(victim); got == member || got == "" {
		t.Errorf("lost session %s still placed on %q", victim, got)
	}
	if f := h.metric("dopia_router_failovers_total"); f != 1 {
		t.Errorf("failovers = %d, want exactly the lost session's", f)
	}
	if d := h.metric("dopia_router_node_deaths_total"); d != 0 {
		t.Errorf("node deaths = %d: a lost session condemned its member", d)
	}
	for sid, pr := range before {
		if got := h.primaryOf(sid); got != pr {
			t.Errorf("session %s moved %s -> %s though its member was healthy", sid, pr, got)
		}
	}
	if !h.l.Router.healthy(member) {
		t.Errorf("member %s not routable after losing one session", member)
	}
	if lost := h.metric("dopia_router_sessions_lost_total"); lost != 0 {
		t.Errorf("sessions lost = %d, want 0", lost)
	}
}

// TestRouterErrorPaths: what the router refuses on its own, before any
// member sees the request.
func TestRouterErrorPaths(t *testing.T) {
	h := newHarness(t, 2, 1)
	pad := strings.Repeat("x", 2<<20)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(h.l.RouterURL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"malformed program", "/v1/programs", `{"source":`, 400},
		{"empty program", "/v1/programs", `{}`, 400},
		{"malformed session", "/v1/sessions", `{`, 400},
		{"malformed buffer", "/v1/sessions/" + h.sids[0] + "/buffers", `[`, 400},
		{"buffer for unknown session", "/v1/sessions/nope/buffers", `{"name":"b","kind":"float32","len":4}`, 404},
		{"malformed launch", "/v1/launch", `{"session_id":`, 400},
		{"launch for unknown session", "/v1/launch", `{"session_id":"nope"}`, 404},
		// Oversized bodies are refused at the router's edge with the
		// members' own limits, whatever else the JSON says.
		{"oversized program body", "/v1/programs", `{"source":"__kernel void k(){}","pad":"` + pad + `"}`, 400},
		{"oversized session body", "/v1/sessions", `{"session_id":"big","pad":"` + pad[:8192] + `"}`, 400},
		{"oversized launch body", "/v1/launch", `{"session_id":"` + h.sids[0] + `","pad":"` + pad + `"}`, 400},
	} {
		if got := post(tc.path, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
	if _, ok := h.l.Router.placement("big"); ok {
		t.Error("oversized session request created a placement")
	}
	_, err := h.rc.ReadBuffer("nope", "y")
	if apiErr, ok := err.(*server.APIError); !ok || apiErr.Status != 404 {
		t.Errorf("read from unknown session: %v, want 404", err)
	}
	// None of that touched a member's standing.
	if d := h.metric("dopia_router_node_deaths_total"); d != 0 {
		t.Errorf("node deaths = %d after client errors", d)
	}
	h.launchRound(0)
	h.verifyFinal()
}

// TestRouterRelaysMemberBytes: the router answers a launch and a buffer
// read with its primary's body, unchanged: a read reads as it does on the
// member, and a launch reads as encoding/json writes its decoded value.
func TestRouterRelaysMemberBytes(t *testing.T) {
	h := newHarness(t, 2, 1)
	h.launchRound(0)
	sid := h.sids[0]
	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
		}
		return body
	}
	path := "/v1/sessions/" + sid + "/buffers/y"
	var member string
	for _, n := range h.l.Nodes {
		if n.ID == h.primaryOf(sid) {
			member = n.URL
		}
	}
	if got, want := get(h.l.RouterURL+path), get(member+path); !bytes.Equal(got, want) {
		t.Errorf("router read body:\n got %s\nwant %s", got, want)
	}

	nn := int64(bufN)
	req, _ := json.Marshal(&server.LaunchRequest{
		SessionID: sid, ProgramID: h.prog, Kernel: "acc",
		Args:   []server.LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}},
		Global: []int{bufN}, Local: []int{32}, Read: []string{"x", "y"},
	})
	resp, err := http.Post(h.l.RouterURL+"/v1/launch", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("launch via router: %d %v", resp.StatusCode, err)
	}
	var lr server.LaunchResponse
	if err := json.Unmarshal(body, &lr); err != nil || len(lr.Buffers) != 2 {
		t.Fatalf("launch via router: %d buffers (%v)", len(lr.Buffers), err)
	}
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(&lr)
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("router launch body:\n got %s\nwant %s", body, want.Bytes())
	}
}
