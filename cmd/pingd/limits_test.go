package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"ping/internal/obs"
)

func post(t *testing.T, url, contentType, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestQueryBodyOverCapIsRefused: a body longer than obs.MaxQueryBytes
// used to be cut at the cap and the prefix run, so padding a query past
// the cap dropped its trailing LIMIT and ran a different query.
func TestQueryBodyOverCapIsRefused(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})
	body := "SELECT * WHERE { ?x <p0> ?y }\n#" + strings.Repeat("x", obs.MaxQueryBytes) + "\nLIMIT 1"
	for _, path := range []string{"/query", "/explain"} {
		if code, msg := post(t, ts.URL+path, "application/sparql-query", body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%s), want 413", path, code, strings.TrimSpace(msg))
		}
	}
	// A body at the cap still runs.
	atCap := "SELECT * WHERE { ?x <p0> ?y } LIMIT 1\n#"
	atCap += strings.Repeat("x", obs.MaxQueryBytes-len(atCap))
	if code, msg := post(t, ts.URL+"/query", "application/sparql-query", atCap); code != http.StatusOK {
		t.Errorf("query of exactly the cap: status %d (%s), want 200", code, strings.TrimSpace(msg))
	}
}

// TestUpdateBodyOverCapIsRefused: /update read its body with no cap.
// Comment lines past the cap add no triple, so the parent answered 200;
// now the body is refused before it is parsed, and no epoch is
// published.
func TestUpdateBodyOverCapIsRefused(t *testing.T) {
	srv, ts, _ := newTestServer(t, serverConfig{})
	line := "# " + strings.Repeat("c", 1021) + "\n"
	body := "<s100> <p0> <s1> .\n" + strings.Repeat(line, maxUpdateBytes/len(line)+1)
	if code, msg := post(t, ts.URL+"/update?op=add", "application/n-triples", body); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", code, strings.TrimSpace(msg))
	}
	if e := srv.store.Current().Epoch(); e != 0 {
		t.Errorf("epoch %d after a refused update, want 0", e)
	}
}

// TestHostileQueriesAreRefused: the parser's bounds answer 400. pingd
// parses before admission, so such a query never takes a slot.
func TestHostileQueriesAreRefused(t *testing.T) {
	_, ts, _ := newTestServer(t, serverConfig{})
	const n = 100_000
	nested := "SELECT * WHERE { ?x <p0> ?y . FILTER (" + strings.Repeat("(", n) + "?y = <s1>" + strings.Repeat(")", n) + ") }"
	var bomb strings.Builder
	bomb.WriteString("PREFIX p: <http://e/" + strings.Repeat("x", 10_000) + ">\nSELECT * WHERE { ?x <p0> ?y . FILTER (?y = p:a")
	for i := 1; i < 10_000; i++ {
		bomb.WriteString(" || ?y = p:a")
	}
	bomb.WriteString(") }")
	for name, q := range map[string]string{"nested": nested, "prefix": bomb.String()} {
		code, msg := post(t, ts.URL+"/query", "application/sparql-query", q)
		if code != http.StatusBadRequest || !strings.Contains(msg, "over the limit") {
			t.Errorf("%s: status %d (%s), want 400 naming the limit", name, code, strings.TrimSpace(msg))
		}
	}
}
