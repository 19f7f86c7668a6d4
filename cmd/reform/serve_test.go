package main

import (
	"io"
	"net"
	"net/http"
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
