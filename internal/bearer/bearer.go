// Package bearer guards an HTTP handler with a shared bearer token —
// the one check the fleet coordinator and the trend server both use.
package bearer

import (
	"crypto/sha256"
	"crypto/subtle"
	"net/http"
	"strings"
)

// Guard returns h unchanged when token is empty. Otherwise every
// request must carry "Authorization: Bearer <token>"; any other gets a
// 401 with body text denied. Tokens are compared as sha256 digests in
// constant time, whatever length the caller sends.
func Guard(h http.Handler, token, denied string) http.Handler {
	if token == "" {
		return h
	}
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		got := sha256.Sum256([]byte(tok))
		if !ok || subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
			http.Error(w, denied, http.StatusUnauthorized)
			return
		}
		h.ServeHTTP(w, r)
	})
}
