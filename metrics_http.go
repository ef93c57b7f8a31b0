package wbcast

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"wbcast/internal/obs"
)

// MetricsSource is anything whose metrics a MetricsServer can expose:
// *Replica, *Client and *Cluster implement it.
type MetricsSource interface {
	obsRegistries() []*obs.Registry
}

func (r *Replica) obsRegistries() []*obs.Registry { return []*obs.Registry{r.reg} }
func (cl *Client) obsRegistries() []*obs.Registry { return []*obs.Registry{cl.reg} }

// appSource adapts registries owned by application layers built inside
// this module (package kv's shard engines and clients) into a
// MetricsSource; see NewAppSource.
type appSource struct{ regs []*obs.Registry }

func (s *appSource) obsRegistries() []*obs.Registry { return s.regs }

// NewAppSource bundles metric registries into a MetricsSource so
// application layers built in this module (package kv) can join a
// ServeMetrics endpoint next to the protocol's own metrics. The registry
// type lives in an internal package, so external modules use the sources
// those layers expose (e.g. kv.Service.MetricsSource) rather than calling
// this directly.
func NewAppSource(regs ...*obs.Registry) MetricsSource { return &appSource{regs: regs} }

func (c *Cluster) obsRegistries() []*obs.Registry {
	regs := make([]*obs.Registry, 0, len(c.replicas))
	for _, r := range c.replicas {
		regs = append(regs, r.reg)
	}
	return regs
}

// MetricsServer is the HTTP observability endpoint started by ServeMetrics.
type MetricsServer struct {
	ln      net.Listener
	srv     *http.Server
	sources []MetricsSource
}

// ServeMetrics starts an HTTP observability endpoint on addr serving
//
//   - /metrics — the sources' metrics in Prometheus text exposition format
//     (histograms as summaries, one family header across processes, each
//     sample labelled with its process ID);
//   - /debug/vars — the standard library's expvar endpoint (memstats and
//     cmdline); the sources' metrics are served only by /metrics;
//   - /debug/pprof/ — the standard profiling handlers (CPU, heap, mutex,
//     goroutine, ...), so a running node can be profiled without rebuild.
//
// addr follows net.Listen conventions (e.g. "127.0.0.1:9100"; ":0" picks a
// free port — see Addr). Close shuts the listener down. Used by wbcast-node
// and wbcast-kv via their -metrics-addr flag.
func ServeMetrics(addr string, sources ...MetricsSource) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wbcast: metrics listener: %w", err)
	}
	s := &MetricsServer{ln: ln, sources: sources}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, s.registries()...)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}

	go s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close
	return s, nil
}

// registries returns the sources' registries.
func (s *MetricsServer) registries() []*obs.Registry {
	var regs []*obs.Registry
	for _, src := range s.sources {
		regs = append(regs, src.obsRegistries()...)
	}
	return regs
}

// Addr returns the address the server is listening on (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close stops the HTTP server and its listener.
func (s *MetricsServer) Close() error {
	return s.srv.Close()
}
