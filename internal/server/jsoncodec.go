package server

// The JSON payload codec. A buffer's content travels as base64 text in
// the f32_b64 / i32_b64 members, and it is nearly all of a read-back's
// bytes: encoding/json would escape-check every one of them on the way
// out and run its per-byte scanner over them on the way in. Neither end
// lets it. The wire bytes are exactly what encoding/json writes.
//
// Encode: the small fields go through json.Marshal and each buffer's
// object is appended by hand, its payload base64-encoded straight from
// the read-set slab, into one pooled body sent with Content-Length.
//
// Decode: one structural scan of the body finds each payload member in
// the places a payload can land (a top-level object, or the objects of a
// top-level "buffers" map) and lifts out its string when every byte is
// in the base64 alphabet: such a string is valid JSON and decodes to
// itself. encoding/json decodes the rest, and each payload goes back into
// the buffer and field the scan found it in. Whatever the scan does not
// recognise, and every error, takes the plain json.Decoder path, so the
// result is always that of json.NewDecoder(bytes.NewReader(body)).Decode.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
)

// b64Alphabet marks the bytes of standard base64 text, padding included.
// None of them needs escaping in a JSON string.
var b64Alphabet = func() (t [256]bool) {
	for _, c := range []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=") {
		t[c] = true
	}
	return t
}()

func isB64(s []byte) bool {
	for _, c := range s {
		if !b64Alphabet[c] {
			return false
		}
	}
	return true
}

// ---------- encode ----------

// appendJSON appends the buffer's object as encoding/json writes its
// BufferData, the payload base64-encoded straight from the slab.
func (rb *rawBuf) appendJSON(b []byte) []byte {
	kind, key := `{"kind":"float32","len":`, `,"f32_b64":"`
	if rb.kind != 'f' {
		kind, key = `{"kind":"int32","len":`, `,"i32_b64":"`
	}
	b = strconv.AppendInt(append(b, kind...), int64(rb.elems), 10)
	if len(rb.raw) > 0 {
		b = base64.StdEncoding.AppendEncode(append(b, key...), rb.raw)
		b = append(b, '"')
	}
	return append(b, '}')
}

// jsonSize sizes the slab for the buffer's object and its key: a name
// that needs escapes may outgrow it, and the slab then grows.
func (rb *rawBuf) jsonSize() int {
	return len(rb.name) + 64 + base64.StdEncoding.EncodedLen(len(rb.raw))
}

// appendLaunchJSON appends what json.NewEncoder(w).Encode writes for
// small with bufs as its Buffers map (small.Buffers is ignored): the small
// fields split around the map, whose entries go in ascending name order,
// the last of a repeated name winning, as in a map. It sorts bufs.
func appendLaunchJSON(b []byte, small *LaunchResponse, bufs []*rawBuf) ([]byte, error) {
	head := *small
	head.Buffers = nil
	fields, err := json.Marshal(&head)
	if err != nil {
		return b, err
	}
	if len(bufs) == 0 {
		return append(append(b, fields...), '\n'), nil
	}
	// Buffers is followed by queue_ms, the first field that is never
	// omitted; every field after it is a number or a bool, so its key's
	// last occurrence is the field.
	at := bytes.LastIndex(fields, []byte(`,"queue_ms":`))
	b = append(b, fields[:at]...)
	b = append(b, `,"buffers":{`...)
	slices.SortStableFunc(bufs, func(x, y *rawBuf) int { return strings.Compare(x.name, y.name) })
	for i, rb := range bufs {
		if i+1 < len(bufs) && bufs[i+1].name == rb.name {
			continue
		}
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
		name, _ := json.Marshal(rb.name) // a string always marshals
		b = rb.appendJSON(append(append(b, name...), ':'))
	}
	b = append(b, '}')
	return append(append(b, fields[at:]...), '\n'), nil
}

// writeLaunch answers 200 with the JSON launch response of small and
// bufs, the one launch-response writer (a router relays its bytes).
func writeLaunch(w http.ResponseWriter, small *LaunchResponse, bufs []*rawBuf) {
	n := 512
	for _, rb := range bufs {
		n += rb.jsonSize()
	}
	writeBody(w, n, func(b []byte) []byte {
		b, err := appendLaunchJSON(b, small, bufs)
		if err != nil {
			return b[:0] // as Encode: the status, and no body
		}
		return b
	})
}

// writeBuffer answers 200 with one buffer's JSON object.
func writeBuffer(w http.ResponseWriter, rb *rawBuf) {
	writeBody(w, rb.jsonSize()+1, func(b []byte) []byte { return append(rb.appendJSON(b), '\n') })
}

// writeBody answers 200 with the body fill appends to a pooled slab of
// at least n bytes, sent with its Content-Length.
func writeBody(w http.ResponseWriter, n int, fill func([]byte) []byte) {
	p, b := getScratch(n)
	b = fill(b[:0])
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) > cap(*p) {
		*p = b[:cap(b)]
	}
	putScratch(p)
}

// ---------- decode ----------

// readBody reads r to its end. n is the length the body declares (-1
// when unknown), trusted only as far as bytes arrive: the first allocation
// holds at most 64 KiB, and each next one doubles what has arrived, capped
// at n. A body of at most 64 KiB that declares its length is read into
// one allocation.
func readBody(r io.Reader, n int64) ([]byte, error) {
	size := int64(511)
	if n >= 0 {
		size = min(n, 64<<10)
	}
	b := make([]byte, 0, size+1) // the spare byte takes the EOF
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			size := int64(2 * len(b))
			if n >= int64(len(b)) {
				size = min(size, n+1)
			}
			b = append(make([]byte, 0, size), b...)
		}
	}
}

// decodeJSON decodes the first JSON value of body into v, which is zero,
// with the result and error of json.NewDecoder(bytes.NewReader(body)).
// Decode(v). The payloads of a *LaunchResponse, *SessionExport,
// *BufferData or *BufferRequest bypass encoding/json.
func decodeJSON(body []byte, v any) error {
	inMap := false
	switch v.(type) {
	case *LaunchResponse, *SessionExport:
		inMap = true
	case *BufferData, *BufferRequest:
	default:
		return json.NewDecoder(bytes.NewReader(body)).Decode(v)
	}
	s := payloadScan{b: body}
	if !s.value(inMap) || len(s.lifts) == 0 {
		return json.NewDecoder(bytes.NewReader(body)).Decode(v)
	}
	lifted := 0
	for _, l := range s.lifts {
		lifted += l.end - l.start
	}
	rest := make([]byte, 0, len(body)-lifted)
	at := 0
	for _, l := range s.lifts {
		rest = append(rest, body[at:l.start]...)
		at = l.end
	}
	rest = append(rest, body[at:]...)
	if err := json.NewDecoder(bytes.NewReader(rest)).Decode(v); err != nil {
		// The body fails the same way; decode it for the same error.
		return json.NewDecoder(bytes.NewReader(body)).Decode(v)
	}
	for _, l := range s.lifts {
		text := string(body[l.start:l.end])
		switch v := v.(type) {
		case *LaunchResponse:
			setPayload(v.Buffers, l, text)
		case *SessionExport:
			setPayload(v.Buffers, l, text)
		case *BufferData:
			*v.payload(l.i32) = text
		case *BufferRequest:
			*v.payload(l.i32) = text
		}
	}
	return nil
}

func (bd *BufferData) payload(i32 bool) *string {
	if i32 {
		return &bd.I32B64
	}
	return &bd.F32B64
}

func (r *BufferRequest) payload(i32 bool) *string {
	if i32 {
		return &r.I32B64
	}
	return &r.F32B64
}

func setPayload(m map[string]BufferData, l lift, text string) {
	bd := m[l.name]
	*bd.payload(l.i32) = text
	m[l.name] = bd
}

// lift is one payload string the scan took out of a body: the buffer
// and field it belongs to, and its bytes between the quotes.
type lift struct {
	name       string // its key in the buffers map; "" at top level
	i32        bool   // i32_b64, else f32_b64
	start, end int
}

// payloadScan walks the first JSON value of a body for payloads. It
// recognises only a shape in which each lifted string is the one member
// that sets its field: it gives up on a key that is escaped or not ASCII
// (either may unescape or case-fold to a field's name), on a key that
// matches a field's name only case-insensitively, and on a repeated
// payload field or buffer name.
type payloadScan struct {
	b     []byte
	i     int
	lifts []lift
}

func (s *payloadScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// peek skips white space and reports the next byte (0 at the end).
func (s *payloadScan) peek() byte {
	s.ws()
	if s.i == len(s.b) {
		return 0
	}
	return s.b[s.i]
}

// str scans the string at s.i and returns its bytes between the quotes
// and whether they are all base64 text.
func (s *payloadScan) str() (start, end int, b64, ok bool) {
	if s.peek() != '"' {
		return 0, 0, false, false
	}
	start = s.i + 1
	q := bytes.IndexByte(s.b[start:], '"')
	if q < 0 {
		return 0, 0, false, false
	}
	if text := s.b[start : start+q]; bytes.IndexByte(text, '\\') < 0 {
		s.i = start + q + 1
		return start, start + q, isB64(text), true
	}
	for j := start; j < len(s.b); j++ {
		switch s.b[j] {
		case '"':
			s.i = j + 1
			return start, j, false, true
		case '\\':
			j++
		}
	}
	return 0, 0, false, false
}

// key scans a member's key and its colon. A key that is escaped or not
// ASCII is refused.
func (s *payloadScan) key() ([]byte, bool) {
	start, end, _, ok := s.str()
	if !ok || s.peek() != ':' {
		return nil, false
	}
	s.i++
	k := s.b[start:end]
	for _, c := range k {
		if c == '\\' || c >= 0x80 {
			return nil, false
		}
	}
	return k, true
}

// skip passes over one value.
func (s *payloadScan) skip() bool {
	depth := 0
	for {
		switch s.peek() {
		case 0:
			return false
		case '"':
			if _, _, _, ok := s.str(); !ok {
				return false
			}
		case '{', '[':
			depth++
			s.i++
			continue
		case '}', ']':
			depth--
			s.i++
		case ',', ':':
			if depth == 0 {
				return false
			}
			s.i++
			continue
		default:
			for s.i < len(s.b) && !strings.ContainsRune(",:]} \t\r\n\"{[", rune(s.b[s.i])) {
				s.i++
			}
		}
		if depth <= 0 {
			return depth == 0
		}
	}
}

// members walks the object at s.i, handing each member's key to member,
// which consumes the value.
func (s *payloadScan) members(member func(key []byte) bool) bool {
	if s.peek() != '{' {
		return false
	}
	s.i++
	if s.peek() == '}' {
		s.i++
		return true
	}
	for {
		k, ok := s.key()
		if !ok || !member(k) {
			return false
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return true
		default:
			return false
		}
	}
}

// value walks the body's first value: a payload object, or (inMap) an
// object whose "buffers" member maps names to payload objects.
func (s *payloadScan) value(inMap bool) bool {
	if !inMap {
		return s.payload("")
	}
	seen := false
	return s.members(func(k []byte) bool {
		switch {
		case string(k) == "buffers":
			if seen {
				return false
			}
			seen = true
			if s.peek() == '{' {
				return s.buffers()
			}
		case bytes.EqualFold(k, []byte("buffers")):
			return false
		}
		return s.skip()
	})
}

// buffers walks a buffers map.
func (s *payloadScan) buffers() bool {
	var names []string
	return s.members(func(k []byte) bool {
		name := string(k)
		if slices.Contains(names, name) {
			return false
		}
		names = append(names, name)
		if s.peek() == '{' {
			return s.payload(name)
		}
		return s.skip()
	})
}

// payload walks one buffer's object and lifts its base64 payloads.
func (s *payloadScan) payload(name string) bool {
	var seen [2]bool
	return s.members(func(k []byte) bool {
		field := -1
		switch {
		case string(k) == "f32_b64":
			field = 0
		case string(k) == "i32_b64":
			field = 1
		case bytes.EqualFold(k, []byte("f32_b64")), bytes.EqualFold(k, []byte("i32_b64")):
			return false
		}
		if field >= 0 {
			if seen[field] {
				return false
			}
			seen[field] = true
		}
		if field < 0 || s.peek() != '"' {
			return s.skip()
		}
		start, end, b64, ok := s.str()
		if ok && b64 && end > start {
			s.lifts = append(s.lifts, lift{name: name, i32: field == 1, start: start, end: end})
		}
		return ok
	})
}
