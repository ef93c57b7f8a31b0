// Command wbcast-kv serves the sharded key-value store (package kv) over
// HTTP: one process hosts a whole multicast cluster — every group is one
// shard of the keyspace, replicated -size ways — and exposes ordered
// reads, writes and cross-shard transactions. It is the runnable shape of
// the paper's motivating application (scalable fault-tolerant transaction
// processing, §I): single-key operations are multicast to the one shard
// that owns the key, multi-key transactions to exactly the shards they
// touch, and the atomic-multicast order makes every shard replica apply
// them at the same point of the global order — no locking, no two-phase
// commit.
//
// Endpoints:
//
//	GET    /kv/<key>   read a key (ordered through the multicast layer);
//	                   200 with the value, or 404
//	PUT    /kv/<key>   write the request body as the key's value; 204
//	DELETE /kv/<key>   delete the key; JSON {"existed": bool}
//	POST   /txn        JSON [{"op":"get|put|delete","key":...,"val":...},…]
//	                   applied atomically across the shards it touches;
//	                   JSON [{"found":bool,"val":...},…], positional
//	GET    /state      JSON per-shard-replica state: digest, applied /
//	                   replayed / duplicate counts, key count, frontier
//
// Keys and values in /txn are plain strings; /kv/<key> takes the key from
// the URL (percent-encoded) and the value from the raw body.
//
// With -data-dir every shard replica is durable: the multicast layer's
// protocol state and the engine's applied state (snapshot + app log) are
// synced under <data-dir>/p<id>, and a restart on the same directory
// recovers the store (see docs/KVSTORE.md). The flag also sets
// AppGCHorizon: protocol GC waits for the engines' durability horizon, so
// every record an engine has not yet logged stays replayable. Each log
// compacts once it outgrows the snapshot that replaces it; there is no
// setting for it. -data-dir is refused with -protocol ftskeen and fastcast,
// on which a killed process can lose acknowledged writes, and with skeen,
// which keeps no protocol state (wbcast.Config refuses a store for it).
// -metrics-addr serves
// /metrics with the cluster's white-box pipeline metrics and the kv_*
// application metrics side by side.
//
// Example:
//
//	wbcast-kv -shards 3 -size 3 -addr :8080 &
//	curl -X PUT  -d 'alice' localhost:8080/kv/user:1
//	curl localhost:8080/kv/user:1
//	curl -X POST -d '[{"op":"put","key":"a","val":"1"},{"op":"put","key":"b","val":"2"}]' localhost:8080/txn
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flag"

	"wbcast"
	"wbcast/kv"
)

func main() {
	var (
		shards   = flag.Int("shards", 3, "number of shards (one multicast group each)")
		size     = flag.Int("size", 3, "replicas per shard (2f+1; skeen requires 1)")
		protocol = flag.String("protocol", "wbcast", "protocol: wbcast, fastcast, ftskeen, skeen or genmcast")
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		dataDir  = flag.String("data-dir", "", "root directory for durable state (WAL + snapshots + kv app state); empty runs in-memory")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-operation completion timeout")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	)
	flag.Parse()

	proto, err := wbcast.ParseProtocol(*protocol)
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" && (proto == wbcast.FTSkeen || proto == wbcast.FastCast) {
		log.Fatalf("-data-dir needs -protocol wbcast or genmcast: a restarted %v replica does not resume where its kv engines left off (docs/KVSTORE.md)", proto)
	}
	cfg := wbcast.Config{
		Protocol: proto,
		Groups:   *shards,
		Replicas: *size,
	}
	if *dataDir != "" {
		cfg.Storage = wbcast.DirStorage(*dataDir)
		// GC-pruned protocol records cannot be replayed into the engines on
		// restart, so pruning is gated on the engines' durability horizon:
		// each shard engine raises it as applied state reaches its log, and
		// the protocol never prunes above it (docs/KVSTORE.md).
		cfg.AppGCHorizon = true
	}
	cluster, err := wbcast.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	svc, err := kv.NewService(cluster, kv.Options{Persist: *dataDir != ""})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()
	client, err := svc.NewClient()
	if err != nil {
		log.Fatal(err)
	}

	if *metrics != "" {
		srv, err := wbcast.ServeMetrics(*metrics, cluster, svc.MetricsSource(), client.MetricsSource())
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("metrics on http://%s/metrics", srv.Addr())
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/kv/", func(w http.ResponseWriter, r *http.Request) {
		key := []byte(strings.TrimPrefix(r.URL.Path, "/kv/"))
		if len(key) == 0 {
			http.Error(w, "empty key", http.StatusBadRequest)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), *timeout)
		defer cancel()
		switch r.Method {
		case http.MethodGet:
			val, found, err := client.Get(ctx, key)
			if err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			if !found {
				http.NotFound(w, r)
				return
			}
			w.Write(val)
		case http.MethodPut, http.MethodPost:
			val, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := client.Put(ctx, key, val); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case http.MethodDelete:
			existed, err := client.Delete(ctx, key)
			if err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			json.NewEncoder(w).Encode(map[string]bool{"existed": existed})
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/txn", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var reqs []txnOp
		if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
			http.Error(w, "bad transaction: "+err.Error(), http.StatusBadRequest)
			return
		}
		ops := make([]kv.Op, len(reqs))
		for i, q := range reqs {
			op, err := q.toOp()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			ops[i] = op
		}
		ctx, cancel := context.WithTimeout(r.Context(), *timeout)
		defer cancel()
		results, err := client.Txn(ctx, ops...)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		out := make([]txnResult, len(results))
		for i, res := range results {
			out[i] = txnResult{Found: res.Found, Val: string(res.Val)}
		}
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/state", func(w http.ResponseWriter, _ *http.Request) {
		var out []shardState
		for _, sh := range svc.Replicas() {
			applied, replayed, dups := sh.Counters()
			gts, sub := sh.Frontier()
			out = append(out, shardState{
				Shard: int(sh.Group()), Digest: fmt.Sprintf("%016x", sh.Digest()),
				Applied: applied, Replayed: replayed, Duplicates: dups,
				Keys: sh.Len(), FrontierTime: gts.Time, FrontierSub: sub,
			})
		}
		json.NewEncoder(w).Encode(out)
	})

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		log.Printf("kv store on http://%s (%d shards × %d replicas, %s)", *addr, *shards, *size, proto)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
}

// txnOp is one /txn request entry.
type txnOp struct {
	Op  string `json:"op"`
	Key string `json:"key"`
	Val string `json:"val,omitempty"`
}

func (q txnOp) toOp() (kv.Op, error) {
	if q.Key == "" {
		return kv.Op{}, fmt.Errorf("txn op %q: empty key", q.Op)
	}
	switch q.Op {
	case "get":
		return kv.Op{Kind: kv.OpGet, Key: []byte(q.Key)}, nil
	case "put":
		return kv.Op{Kind: kv.OpPut, Key: []byte(q.Key), Val: []byte(q.Val)}, nil
	case "delete":
		return kv.Op{Kind: kv.OpDelete, Key: []byte(q.Key)}, nil
	}
	return kv.Op{}, fmt.Errorf("txn op %q: want get, put or delete", q.Op)
}

// txnResult is one /txn response entry, positional with the request.
type txnResult struct {
	Found bool   `json:"found"`
	Val   string `json:"val,omitempty"`
}

// shardState is one shard replica's entry in /state.
type shardState struct {
	Shard        int    `json:"shard"`
	Digest       string `json:"digest"`
	Applied      uint64 `json:"applied"`
	Replayed     uint64 `json:"replayed"`
	Duplicates   uint64 `json:"duplicates"`
	Keys         int    `json:"keys"`
	FrontierTime uint64 `json:"frontier_time"`
	FrontierSub  int    `json:"frontier_sub"`
}
