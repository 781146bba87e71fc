package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pestrie/internal/core"
)

// FuzzBatchRequest hardens the /batch request decoder: an arbitrary body
// must get a JSON reply with status 200, 400, 404 or 413, never a panic,
// and a 200 must carry one result per query the body decodes to.
func FuzzBatchRequest(f *testing.F) {
	s := New(Options{MaxBatch: 8})
	if err := s.AddIndex("default", core.Build(testPM(3, 20, 8, 60), nil).Index()); err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, seed := range []string{
		`{"queries":[{"op":"isalias","p":0,"q":1},{"op":"aliases","p":2},{"op":"pointsto","p":3},{"op":"pointedby","o":1}]}`,
		`{"backend":"default","queries":[{"op":"aliases","p":-1},{"op":"nope"},{"op":"isalias","p":0}]}`,
		`{"backend":"missing","queries":[]}`,
		`{"queries":[` + strings.Repeat(`{"op":"isalias","p":0,"q":0},`, 8) + `{"op":"aliases","p":0}]}`,
		`{"queries":null} trailing`,
		`{"queries":[{"op":"aliases","p":1e99}]}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			// The server decodes the first JSON value of the body, as
			// json.Decoder does here.
			var req batchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
			}
			var got BatchResponse
			if err := json.Unmarshal(reply, &got); err != nil {
				t.Fatalf("200 reply is not a BatchResponse (%v): %s", err, reply)
			}
			if len(got.Results) != len(req.Queries) {
				t.Fatalf("200 reply has %d results for %d queries", len(got.Results), len(req.Queries))
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			var e map[string]string
			if err := json.Unmarshal(reply, &e); err != nil || e["error"] == "" {
				t.Fatalf("status %d reply is not a JSON error (%v): %s", resp.StatusCode, err, reply)
			}
		default:
			t.Fatalf("status %d for %q: %s", resp.StatusCode, body, reply)
		}
	})
}

// FuzzReplyEncoding holds the reply writer to encoding/json. From the fuzz
// input it builds a lone Result and a BatchResponse: each layout byte
// picks a result's alias (nil, true or false), its IDs (omitted, or
// json.Marshal of nil, of an empty slice, or of ints drawn from the next
// layout bytes: the bytes the indexes' Append methods write, which
// FuzzListEncoding in internal/delta holds them to) and whether it
// carries text as its error; the byte after the lone result picks nil,
// empty or generated results, and gen is the generation tag. appendResult
// and appendBatch plus the closing newline must be what json.Encoder
// writes.
func FuzzReplyEncoding(f *testing.F) {
	var every []byte // each alias × IDs × error choice, wide negative IDs included
	for c := byte(0); c < 24; c++ {
		every = append(every, c)
		if c/3%4 == 3 {
			every = append(every, 3, 0xff, 40, 0x7f, 0, 5, 3)
		}
	}
	for _, text := range []string{
		"", "<", ">", "&", `"`, `\`, "\x00\x01\t\n\r\x1f\x7f",
		"\u2028", "\u2029", "\xff", "a\xc3(b", "\ufffd",
		`server: unknown op "<a&b> \"x\""`,
	} {
		for _, layout := range [][]byte{
			{12, 0},                        // an error alone; nil results
			{13, 1},                        // alias and error; empty results
			append([]byte{0, 2}, every...), // {}; every kind of result
		} {
			f.Add(layout, text, text, uint16(0))
			f.Add(layout, text, "s:120x30x55x81", uint16(len(text)+1))
		}
	}

	f.Fuzz(func(t *testing.T, layout []byte, text, gen string, unanswered uint16) {
		next := func() int { // the next layout byte, 0 once they run out
			if len(layout) == 0 {
				return 0
			}
			c := layout[0]
			layout = layout[1:]
			return int(c)
		}
		marshal := func(ids []int) json.RawMessage {
			b, err := json.Marshal(ids)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		result := func() Result {
			c := next()
			var r Result
			if c%3 > 0 {
				alias := c%3 == 1
				r.Alias = &alias
			}
			switch c / 3 % 4 { // 0 leaves IDs out
			case 1:
				r.IDs = marshal(nil)
			case 2:
				r.IDs = marshal([]int{})
			case 3:
				ids := make([]int, next()%9)
				for i := range ids {
					ids[i] = int(int8(next())) << (next() % 56)
				}
				r.IDs = marshal(ids)
			}
			if c/12%2 == 1 {
				r.Err = text
			}
			return r
		}
		check := func(got []byte, v any) {
			t.Helper()
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(v); err != nil {
				t.Fatal(err)
			}
			if got = append(got, '\n'); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("reply writer diverges from encoding/json for %+v\nwriter %q\njson   %q", v, got, want.Bytes())
			}
		}

		lone := result()
		check(appendResult(nil, lone), lone)

		br := BatchResponse{Generation: gen, Unanswered: int(unanswered)}
		switch next() % 3 {
		case 1:
			br.Results = []Result{}
		case 2:
			for len(layout) > 0 {
				br.Results = append(br.Results, result())
			}
		}
		check(appendBatch(nil, br), br)
	})
}
