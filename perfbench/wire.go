package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// wireDeadline bounds the life of a load connection, longer than any
// measured phase.
const wireDeadline = 2 * time.Minute

// wireConn is one keep-alive HTTP/1.1 connection owned by one load
// worker. The worker writes each request and reads its response on its
// own goroutine; net/http's Transport would pass every request through a
// write loop and a read loop goroutine, and each handoff is a wakeup that
// the host's scheduler delays by a varying amount.
type wireConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// newWireConns returns n unconnected wireConns to the server at base
// ("http://host:port"). Each dials on first use.
func newWireConns(base string, n int) []*wireConn {
	addr := strings.TrimPrefix(base, "http://")
	out := make([]*wireConn, n)
	for i := range out {
		out[i] = &wireConn{addr: addr}
	}
	return out
}

// get sends GET path with the given extra header lines (each ending in
// CRLF) and returns the status code and body. A failed exchange closes
// the connection; the next call dials afresh.
func (w *wireConn) get(path, header string) (int, []byte, error) {
	if w.c == nil {
		c, err := net.Dial("tcp", w.addr)
		if err != nil {
			return 0, nil, err
		}
		// One deadline for the connection's life, not one per request:
		// a hung server fails the run instead of stalling it.
		if err := c.SetDeadline(time.Now().Add(wireDeadline)); err != nil {
			c.Close()
			return 0, nil, err
		}
		w.c, w.br, w.bw = c, bufio.NewReaderSize(c, 64<<10), bufio.NewWriter(c)
	}
	w.bw.WriteString("GET " + path + " HTTP/1.1\r\nHost: " + w.addr + "\r\n" + header + "\r\n")
	if err := w.bw.Flush(); err != nil {
		w.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		w.close()
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		w.close()
	}
	return resp.StatusCode, body, err
}

// close drops the connection, if any.
func (w *wireConn) close() {
	if w.c != nil {
		w.c.Close()
		w.c = nil
	}
}
