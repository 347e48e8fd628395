package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// FuzzServeHandler drives the /v1 API in process with an arbitrary body
// for publish and move and arbitrary query object and from values. A
// chaos-free server must never panic or answer 5xx, and every /v1/
// response must be JSON. Seeded from TestServeRoundTrip's cases.
func FuzzServeHandler(f *testing.F) {
	for _, seed := range []struct{ body, object, from string }{
		{publishBody(1, 5), "1", ""},
		{moveBody(1, 17), "1", "17"},
		{moveBody(999, 3), "999", "x"},
		{`{"object":`, "not-a-number", "36"},
		{`{"object":2,"node":1,"bogus":true}`, "2", "-1"},
		{moveBody(1, 3) + `{"more":1}`, "1", "9223372036854775808"},
		{`{"object":"one","to":3}`, "-1", " 3"},
		{publishBody(2, 36), "%2F", ""},
		{"0", "/", "0"}, // escapes to a path the mux cannot route
		{moveBody(1, -1), "1e3", "0x10"},
		{strings.Repeat(" ", 2*maxBodyBytes), "18446744073709551616", "15"},
	} {
		f.Add(seed.body, seed.object, seed.from)
	}
	s, err := New(Config{Shards: 2, Nodes: 16, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body, object, from string) {
		// {object} is one non-empty path segment; "." and ".." are path
		// navigation the mux canonicalizes before routing.
		if object == "" || object == "." || object == ".." {
			t.Skip("not a path segment")
		}
		for _, req := range []*http.Request{
			httptest.NewRequest("POST", "/v1/publish", strings.NewReader(body)),
			httptest.NewRequest("POST", "/v1/move", strings.NewReader(body)),
			httptest.NewRequest("GET", "/v1/query/"+url.PathEscape(object)+"?from="+url.QueryEscape(from), nil),
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s %s: status %d, body not JSON: %q", req.Method, req.URL, rec.Code, rec.Body)
			}
		}
	})
}

// TestServeBodyCap: a body past maxBodyBytes is answered 413 and leaves
// no trace; a body within the cap still decodes.
func TestServeBodyCap(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2, Nodes: 16, Seed: 1})
	padded := publishBody(1, 3) + strings.Repeat(" ", maxBodyBytes)
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", padded, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized publish: status %d, want 413", resp.StatusCode)
	}
	if _, ok := s.Location(1); ok {
		t.Fatal("oversized publish was applied")
	}
	huge := `{"object":1,"to":` + strings.Repeat("1", 4*maxBodyBytes) + `}`
	if resp := doJSON(t, "POST", ts.URL+"/v1/move", huge, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized move: status %d, want 413", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/publish", publishBody(1, 3)+strings.Repeat(" ", 100), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish within the cap: status %d, want 200", resp.StatusCode)
	}
}
