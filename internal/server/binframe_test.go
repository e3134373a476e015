package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net/http"
	"testing"
	"time"
)

// binHarness drives binConn.dispatch in process: a server with one
// session holding the acc program's buffers x and y (64 floats each), and
// a binary connection whose responses land in out.
type binHarness struct {
	bc          *binConn
	out         bytes.Buffer
	sid, progID string
}

// newBinHarness builds the harness on a server whose default and maximum
// deadlines are both 20 ms, so no launch holds a call for long.
func newBinHarness(t testing.TB) *binHarness {
	t.Helper()
	s, _, c := newTestServer(t, func(cfg *Config) {
		cfg.DefaultDeadline = 20 * time.Millisecond
		cfg.MaxDeadline = 20 * time.Millisecond
		cfg.MaxBufferBytes = 1 << 12
	})
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	progID, _ := setupAcc(t, c, sid, 64)
	h := &binHarness{sid: sid, progID: progID}
	h.bc = &binConn{s: s, bw: bufio.NewWriter(&h.out), intern: map[string]string{}}
	return h
}

// call dispatches one frame. When dispatch accepts it, it returns the one
// response frame written, and fails the test unless exactly one was.
func (h *binHarness) call(t testing.TB, op byte, p []byte) (respOp byte, payload []byte, err error) {
	t.Helper()
	h.out.Reset()
	if err := h.bc.dispatch(op, p); err != nil {
		return 0, nil, err
	}
	if err := h.bc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	b := h.out.Bytes()
	if len(b) < 5 {
		t.Fatalf("op %#x wrote %d bytes, not a response frame", op, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b[1:5]))
	if len(b) != 5+n {
		t.Fatalf("op %#x wrote %d bytes after a frame header announcing %d", op, len(b)-5, n)
	}
	if b[0] != op|binOKBit && b[0] != opError {
		t.Fatalf("op %#x answered op %#x", op, b[0])
	}
	return b[0], b[5:], nil
}

// launchFrame encodes a launch of acc over the harness's buffers: groups
// work-groups of 16 work-items, under a deadline in ms (0: the server's
// default).
func (h *binHarness) launchFrame(groups int, deadlineMS uint32) []byte {
	b := appendStr(nil, h.sid)
	b = appendStr(b, h.progID)
	b = appendStr(b, "acc")
	b = appendStr(b, "") // idem key
	b = appendU32(b, deadlineMS)
	b = append(b, 1)
	b = appendU32(b, uint32(16*groups))
	b = appendU32(b, 16)
	b = appendU16(b, 3)
	b = appendStr(append(b, 'b'), "x")
	b = appendStr(append(b, 'b'), "y")
	b = appendI64(append(b, 'i'), 64)
	b = appendU16(b, 1)
	return appendStr(b, "y")
}

// TestHugeLaunchMeetsItsDeadline: a launch's deadline bounds its whole
// run, the simulated schedule included. A launch of 2^24 work-groups
// simulates one span per group before any of them executes; its 20 ms
// deadline must answer 504 long before that simulation could finish.
func TestHugeLaunchMeetsItsDeadline(t *testing.T) {
	h := newBinHarness(t)
	if op, p, err := h.call(t, opLaunch, h.launchFrame(4, 0)); err != nil || op != opLaunch|binOKBit {
		t.Fatalf("warm-up launch: op %#x, %v %v", op, err, decodeBinError(p))
	}
	start := time.Now()
	op, p, err := h.call(t, opLaunch, h.launchFrame(1<<24, 20))
	took := time.Since(start)
	if err != nil || op != opError {
		t.Fatalf("huge launch: op %#x, %v; want a 504 error frame", op, err)
	}
	var be *BinError
	if err := decodeBinError(p); !errors.As(err, &be) || be.Status != http.StatusGatewayTimeout {
		t.Fatalf("huge launch answered %v, want 504", err)
	}
	if took > 250*time.Millisecond {
		t.Errorf("huge launch with a 20 ms deadline answered after %v", took)
	}
}

// FuzzBinaryFrame feeds arbitrary (op, payload) frames to one binary
// connection's dispatch, as serveBinaryConn would after reading them. No
// input may panic — serveBinaryConn recovers nothing, so a decoder panic
// takes the daemon down — and each frame is answered with exactly one
// response frame, or refused as a protocol error that closes the
// connection.
func FuzzBinaryFrame(f *testing.F) {
	h := newBinHarness(f)
	const doomed = "fuzz-close"
	if _, _, err := h.call(f, opNewSession, appendStr(nil, doomed)); err != nil {
		f.Fatal(err)
	}
	buf := appendStr(appendStr(nil, h.sid), "z")
	buf = appendU32(append(buf, 'f'), 8)
	f.Add(byte(opCompile), appendStr(nil, accSrc))
	f.Add(byte(opNewSession), appendStr(nil, ""))
	f.Add(byte(opCloseSession), appendStr(nil, doomed))
	f.Add(byte(opCreateBuffer), appendU32(appendU32(append(buf, binContentFill), 3), 0))
	f.Add(byte(opReadBuffer), appendStr(appendStr(nil, h.sid), "y"))
	f.Add(byte(opLaunch), h.launchFrame(4, 0))
	f.Fuzz(func(t *testing.T, op byte, p []byte) {
		_, _, _ = h.call(t, op, p)
	})
}
