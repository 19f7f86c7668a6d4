package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected pins the listener limits: a client
// that opens a connection and never finishes its request headers is
// cut off once the header timeout passes, and nothing bounds a whole
// request or response, because the watch endpoints long-poll.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || srv.MaxHeaderBytes != maxHeaderBytes ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 || maxHeaderBytes <= 0 {
		t.Fatalf("limits not set: header %v idle %v bytes %d", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.MaxHeaderBytes)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v would cut the long-poll endpoints off", srv.ReadTimeout, srv.WriteTimeout)
	}
	// The production value is seconds; the mechanism is the same at 100 ms.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/stats HTTP/1.1\r\nHost: reform\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	// The server answers 408 or nothing, then closes: the read must end
	// in EOF, not in this deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open after the header timeout: %v", err)
	}
}

func TestSplitURLs(t *testing.T) {
	for _, c := range []struct {
		raw  string
		want []string
	}{
		{"", nil},
		{"http://a", []string{"http://a"}},
		{" http://a/ , ,http://b// ", []string{"http://a", "http://b"}},
	} {
		got, err := splitURLs("join", c.raw)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("splitURLs(%q) = %q, %v; want %q", c.raw, got, err, c.want)
		}
	}
	for _, raw := range []string{",", " , ", " / ,"} {
		if got, err := splitURLs("join", raw); !errors.As(err, new(usageError)) {
			t.Errorf("splitURLs(%q) = %q, %v; want a usage error", raw, got, err)
		}
	}
}

// TestURLFlagsRejectEmptyList runs serve and route in a child process
// with a URL-list flag that names no URL: each must exit 2 with the
// complaint instead of starting as a standalone leader or polling a
// relative path.
func TestURLFlagsRejectEmptyList(t *testing.T) {
	cases := map[string][]string{
		"serve-join":     {"serve", "-addr", "127.0.0.1:0", "-join", " , "},
		"route-upstream": {"route", "-addr", "127.0.0.1:0", "-upstream", " , "},
		"route-empty":    {"route", "-addr", "127.0.0.1:0", "-upstream", ""},
	}
	if name := os.Getenv("REFORM_URL_FLAG_CASE"); name != "" {
		os.Args = append([]string{"reform"}, cases[name]...)
		main()
		return
	}
	for name := range cases {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestURLFlagsRejectEmptyList$")
			cmd.Env = append(os.Environ(), "REFORM_URL_FLAG_CASE="+name)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit %v, want status 2; stderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "names no URL") && !strings.Contains(stderr.String(), "is required") {
				t.Fatalf("no complaint about the URL list on stderr:\n%s", stderr.String())
			}
		})
	}
}
