package telemetry

import (
	"context"
	"net"
	"net/http"
	"time"
)

// readHeaderTimeout bounds how long a client may take to send a request's
// headers: without it, a client that sends part of a request line and waits
// holds its connection and goroutine for as long as it likes. Tests lower it.
var readHeaderTimeout = 10 * time.Second

// MetricsServer is a managed HTTP listener serving a registry's Handler.
// Unlike a bare http.Serve goroutine, it owns an http.Server that can be
// Shutdown during a drain, so a final scrape in flight at process exit
// completes instead of racing the listener teardown. The -metrics-addr
// flags of rapidrun, rapidserve, and rapidgw all run one of these.
type MetricsServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
	err  error
}

// ListenAndServe binds addr and starts serving reg's exposition endpoints
// (/metrics, /debug/vars) in a background goroutine. Close it with
// Shutdown.
func ListenAndServe(addr string, reg *Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &MetricsServer{
		srv:  &http.Server{Handler: Handler(reg), ReadHeaderTimeout: readHeaderTimeout},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.err = err
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Shutdown stops accepting scrapes and waits — up to ctx's deadline — for
// in-flight requests to complete, then returns any serve error. Safe to
// call more than once.
func (s *MetricsServer) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err == nil {
		err = s.err
	}
	return err
}
