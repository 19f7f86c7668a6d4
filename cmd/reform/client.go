package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// The HTTP client side of `reform loadtest` and `reform cluster`. Request
// bodies arrive pre-rendered, from bench/gen or as literals.

// httpJSON issues one request with an optional JSON body and returns the
// response body, or an error unless the final status is want. Redirects
// (a follower's control plane pointing at the leader) are followed by
// the client, which replays the body.
func httpJSON(client *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err == nil && resp.StatusCode != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, err
}

// joinPeer posts a join body to base's /v1/peers and returns the
// assigned peer ID.
func joinPeer(client *http.Client, base string, body []byte) (int, error) {
	out, err := httpJSON(client, http.MethodPost, base+"/v1/peers", body, http.StatusCreated)
	if err != nil {
		return 0, err
	}
	var jr struct {
		ID int `json:"id"`
	}
	err = json.Unmarshal(out, &jr)
	return jr.ID, err
}

// getStats decodes base's /v1/stats payload: an api.DaemonStats or an
// api.RouterStats.
func getStats[T any](client *http.Client, base string) (T, error) {
	var st T
	out, err := httpJSON(client, http.MethodGet, base+"/v1/stats", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(out, &st)
}
