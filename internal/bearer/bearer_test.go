package bearer

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestGuard(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) })
	for _, c := range []struct {
		token, header string
		want          int
	}{
		{"", "", http.StatusNoContent},
		{"", "Bearer anything", http.StatusNoContent},
		{"S3CRET", "Bearer S3CRET", http.StatusNoContent},
		{"S3CRET", "", http.StatusUnauthorized},
		{"S3CRET", "S3CRET", http.StatusUnauthorized},
		{"S3CRET", "Bearer S3CRE", http.StatusUnauthorized},
		{"S3CRET", "Bearer S3CRET2", http.StatusUnauthorized},
		{"S3CRET", "bearer S3CRET", http.StatusUnauthorized},
	} {
		req := httptest.NewRequest("GET", "/", nil)
		if c.header != "" {
			req.Header.Set("Authorization", c.header)
		}
		rec := httptest.NewRecorder()
		Guard(ok, c.token, "denied here").ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("token %q, header %q: status %d, want %d", c.token, c.header, rec.Code, c.want)
		}
		if c.want == http.StatusUnauthorized && strings.TrimSpace(rec.Body.String()) != "denied here" {
			t.Errorf("token %q, header %q: body %q", c.token, c.header, rec.Body.String())
		}
	}
}
