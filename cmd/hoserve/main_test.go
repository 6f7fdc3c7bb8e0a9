package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPprofHandlersServed: the profiler is reachable on hoserve's own
// mux, index and named profiles alike.
func TestPprofHandlersServed(t *testing.T) {
	mux := http.NewServeMux()
	handlePprof(mux)
	for path, want := range map[string]string{
		"/debug/pprof/":                  "goroutine",
		"/debug/pprof/goroutine?debug=1": "goroutine profile",
		"/debug/pprof/cmdline":           "",
		"/debug/pprof/heap?debug=1":      "heap profile",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("GET %s: body lacks %q", path, want)
		}
	}
}
