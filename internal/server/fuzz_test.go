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
