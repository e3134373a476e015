package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"testing"
)

// FuzzSessionImport fuzzes the path POST /v1/sessions/import serves:
// decode the JSON body into a SessionExport, then restore it into a fresh
// session. No input may panic; every input is refused or restores
// buffers inside the per-buffer limit; and an accepted input round-trips:
// the restored session's export, restored into another fresh session,
// exports the same bytes again.
func FuzzSessionImport(f *testing.F) {
	s, _, c := newTestServer(f, func(cfg *Config) { cfg.MaxBufferBytes = 1 << 12 })
	sid, err := c.NewSession()
	if err != nil {
		f.Fatal(err)
	}
	_, launch := setupAcc(f, c, sid, 64)
	for i := 0; i < 3; i++ {
		launch("key-" + strconv.Itoa(i))
	}
	exp, err := c.ExportSession(sid)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(exp)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"session_id":"s","buffers":{"x":{"kind":"int32","len":2,"i32_b64":"AQAAAAIAAAA="}}}`))
	f.Add([]byte(`{"session_id":"s","buffers":{"x":{"kind":"float32","len":2000}}}`))

	maxBytes := s.cfg.MaxBufferBytes
	f.Fuzz(func(t *testing.T, body []byte) {
		var in SessionExport
		r := httptest.NewRequest("POST", "/v1/sessions/import", bytes.NewReader(body))
		if !DecodeBody(httptest.NewRecorder(), r, maxBytes*4+(1<<20), &in) {
			return
		}
		sess := s.newSession(in.SessionID)
		if err := sess.restore(&in, maxBytes); err != nil {
			return
		}
		for name, b := range sess.bufs {
			if n := int64(b.Len()) * 4; n > maxBytes {
				t.Fatalf("restored buffer %q holds %d bytes, over the %d-byte limit", name, n, maxBytes)
			}
		}
		first := sess.export()
		again := s.newSession(first.SessionID)
		if err := again.restore(first, maxBytes); err != nil {
			t.Fatalf("restoring an export failed: %v", err)
		}
		a, errA := json.Marshal(first)
		b, errB := json.Marshal(again.export())
		if errA != nil || errB != nil {
			t.Fatalf("encoding the exports: %v, %v", errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("export does not round-trip:\n%s\n%s", a, b)
		}
	})
}
