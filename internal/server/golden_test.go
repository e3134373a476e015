package server

// Golden wire bytes: one fixed launch (buffer arguments, an int and a
// float scalar, a two-buffer read-set named out of alphabetical order)
// must produce exactly the JSON body and the opLaunch|OK frame recorded
// in testdata/ at the commit before the launch path was unified. Only the
// wall-clock fields (queue_ms, exec_ms, infer_us) are zeroed; every other
// byte — field order, base64 payloads, read-set order — is pinned.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"testing"
	"time"
)

var goldenTimingJSON = regexp.MustCompile(`"(queue_ms|exec_ms|infer_us)":[-+.eE0-9]+`)

// zeroLaunchFrameTimings overwrites the three wall-clock f64 fields of an
// opLaunch|OK payload in place.
func zeroLaunchFrameTimings(t *testing.T, p []byte) {
	t.Helper()
	cur := wireCursor{b: p}
	cur.strBytes() // rung
	cur.strBytes() // engine
	flags := cur.u8()
	zero := func() { copy(cur.take(8), make([]byte, 8)) }
	if flags&binFlagDecision != 0 {
		cur.take(4 + 8 + 8 + 4 + 1)
		zero() // inferUS
	}
	if flags&binFlagResult != 0 {
		cur.take(8 + 4 + 4 + 4)
	}
	cur.take(6 * 8)
	zero() // queueMS
	zero() // execMS
	if cur.err != nil {
		t.Fatalf("launch frame too short: %v", cur.err)
	}
}

// goldenLaunch drives the fixed launch over both protocols against a
// fresh daemon and returns the raw JSON body and the raw binary response
// payload, timings zeroed.
func goldenLaunch(t *testing.T) (jsonBody, binPayload []byte) {
	t.Helper()
	_, addr := newMixedTestServer(t, nil)
	jc := NewClient("http://"+addr, nil)
	prog, err := jc.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	seed := uint32(7)
	newSess := func() string {
		sid, err := jc.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := jc.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: n, FillSeed: &seed}); err != nil {
			t.Fatal(err)
		}
		if err := jc.CreateBuffer(sid, &BufferRequest{Name: "y", Kind: "float32", Len: n}); err != nil {
			t.Fatal(err)
		}
		return sid
	}
	a, cnt := 1.5, int64(n)
	args := []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &cnt}}

	// JSON: post the request by hand to keep the undecoded body.
	body, err := json.Marshal(&LaunchRequest{
		SessionID: newSess(), ProgramID: prog.ProgramID, Kernel: "scale",
		Args: args, Global: []int{n}, Local: []int{8}, Read: []string{"y", "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post("http://"+addr+"/v1/launch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err = io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("JSON launch: status %d err %v body %s", hr.StatusCode, err, jsonBody)
	}
	jsonBody = goldenTimingJSON.ReplaceAll(jsonBody, []byte(`"$1":0`))

	// Binary: speak the frames by hand to keep the undecoded payload.
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	if err := writeClientHello(bw); err != nil {
		t.Fatal(err)
	}
	b := appendStr(nil, newSess())
	b = appendStr(b, prog.ProgramID)
	b = appendStr(b, "scale")
	b = appendStr(b, "") // idem key
	b = appendU32(b, 0)  // deadline
	b = append(b, 1)
	b = appendU32(b, n)
	b = appendU32(b, 8)
	b = appendU16(b, 4)
	b = appendStr(append(b, 'b'), "x")
	b = appendStr(append(b, 'b'), "y")
	b = appendF64(append(b, 'f'), a)
	b = appendI64(append(b, 'i'), cnt)
	b = appendU16(b, 2)
	b = appendStr(b, "y")
	b = appendStr(b, "x")
	if err := writeFrameHeader(bw, opLaunch, len(b)); err != nil {
		t.Fatal(err)
	}
	bw.Write(b)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var hello [2]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil || hello != [2]byte{binMagic, binVersion} {
		t.Fatalf("server hello %x: %v", hello, err)
	}
	op, ln, err := readFrameHeader(br, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	binPayload = make([]byte, ln)
	if _, err := io.ReadFull(br, binPayload); err != nil {
		t.Fatal(err)
	}
	if op != opLaunch|binOKBit {
		t.Fatalf("binary launch answered op %#x: %v", op, decodeBinError(binPayload))
	}
	zeroLaunchFrameTimings(t, binPayload)
	return jsonBody, binPayload
}

func TestGoldenWireBytes(t *testing.T) {
	jsonBody, binPayload := goldenLaunch(t)
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"testdata/golden_launch.json", jsonBody},
		{"testdata/golden_launch.bin", binPayload},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: wire bytes changed\n got: %q\nwant: %q", g.file, g.got, want)
		}
	}
}
