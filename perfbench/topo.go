package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"vcqr/internal/accessctl"
	"vcqr/internal/cache"
	"vcqr/internal/cluster"
	"vcqr/internal/core"
	"vcqr/internal/hashx"
	"vcqr/internal/partition"
	"vcqr/internal/relation"
	"vcqr/internal/server"
	"vcqr/internal/sig"
	"vcqr/internal/store"
)

// role is the single user group every workload reads as.
var role = accessctl.Role{Name: "all"}

// proc is one listener: a server process's HTTP face.
type proc struct {
	url string
	hs  *http.Server
}

func listen(name string, h http.Handler) (*proc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", name, err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return &proc{url: "http://" + ln.Addr().String(), hs: hs}, nil
}

// kill closes the listener and every connection at once, as
// server.HTTPServer.Kill does: in-flight requests see a reset.
func (p *proc) kill() { p.hs.Close() }

// node is one shard node.
type node struct {
	name  string
	srv   *server.Server
	p     *proc
	store *store.NodeStore
	dir   string
}

// deployment is one set-up topology serving one signed publication.
type deployment struct {
	w   workload
	p   params
	tr  *tracer
	h   *hashx.Hasher
	key *sig.PrivateKey
	sr  *core.SignedRelation
	set *partition.Set
	// master is the owner's working copy; deltas are signed against it.
	master *core.SignedRelation

	single *server.Server
	nodes  []*node
	coord  *cluster.Coordinator
	ccfg   cluster.Config
	peer   *cache.Server
	procs  []*proc
	front  string // the URL readers and the writer talk to

	setup, build, place time.Duration
}

// Paths the tracer spans on each kind of server (handler → span name).
var (
	singlePaths = map[string]string{"/stream": "server.stream", "/delta": "delta.local_apply"}
	coordPaths  = map[string]string{"/stream": "cluster.stream", "/delta": "cluster.delta"}
	nodePaths   = map[string]string{"/shard/stream": "server.substream", "/node/delta": "delta.prepare",
		"/node/mirror": "delta.mirror", "/node/tx": "delta.commit"}
	peerPaths = map[string]string{"/cache": "cache.peer"}
)

// deploy sets the workload's topology up from scratch: owner key,
// signed relation, placement, listeners. setup is measured from key
// generation until the front end can serve its first query.
func deploy(w workload, p params, rel *relation.Relation, tr *tracer, dataRoot string) (*deployment, error) {
	d := &deployment{w: w, p: p, tr: tr, h: hashx.New()}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	start := time.Now()
	key, err := sig.Generate(sig.DefaultBits, nil)
	if err != nil {
		return nil, err
	}
	d.key = key
	cp, err := core.NewParams(rel.L, rel.U, core.DefaultBase)
	if err != nil {
		return nil, err
	}
	tb := time.Now()
	if d.sr, err = core.Build(d.h, key, cp, rel); err != nil {
		return nil, err
	}
	d.build = time.Since(tb)
	if d.set, err = partition.Split(d.sr, p.Shards); err != nil {
		return nil, err
	}
	pub := key.Public()
	policy := accessctl.NewPolicy(role)
	if !w.Cluster {
		d.single = server.New(server.Config{Hasher: d.h, Pub: pub, Policy: policy})
		tp := time.Now()
		if err := d.single.AddPartition(d.set, true); err != nil {
			return nil, err
		}
		d.place = time.Since(tp)
		fp, err := d.serve("single", singlePaths, "server.write", d.single.Handler())
		if err != nil {
			return nil, err
		}
		d.front = fp.url
	} else {
		urls := make([]string, p.Nodes)
		for i := range urls {
			n, err := d.startNode(fmt.Sprintf("node%d", i), dataRoot, "")
			if err != nil {
				return nil, err
			}
			d.nodes = append(d.nodes, n)
			if err := d.serveNode(n); err != nil {
				return nil, err
			}
			urls[i] = n.p.url
		}
		var cc *cache.Client
		if w.CachePeer {
			d.peer = cache.NewServer(0)
			pp, err := d.serve("peer", peerPaths, "cache.write", d.peer.Handler())
			if err != nil {
				return nil, err
			}
			cc = cache.NewClient(cache.Config{Peers: []string{pp.url}})
		}
		// The coordinator gets its own copy of the default transport so
		// the traced run can wrap it; untraced it behaves as the default.
		var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
		if tr != nil {
			rt = &nodeTransport{t: tr, inner: rt}
		}
		d.ccfg = cluster.Config{Hasher: d.h, Pub: pub, Params: d.sr.Params, Schema: d.sr.Schema,
			Policy: policy, Spec: d.set.Spec, Nodes: urls, Replicas: p.Replicas, Cache: cc,
			HTTP: &http.Client{Transport: rt}}
		if d.coord, err = cluster.New(d.ccfg); err != nil {
			return nil, err
		}
		tp := time.Now()
		if err := d.coord.Place(d.set); err != nil {
			return nil, err
		}
		d.place = time.Since(tp)
		fp, err := d.serve("coord", coordPaths, "cluster.write", d.coord.Handler())
		if err != nil {
			return nil, err
		}
		d.front = fp.url
	}
	d.setup = time.Since(start)
	d.master = d.sr.Clone()
	ok = true
	return d, nil
}

// startNode starts one shard node; with a durable workload it opens (or,
// given dir, reopens) the node's data dir first.
func (d *deployment) startNode(name, dataRoot, dir string) (*node, error) {
	n := &node{name: name, dir: dir}
	cfg := server.Config{Hasher: d.h, Pub: d.key.Public(), Policy: accessctl.NewPolicy(role)}
	if d.w.Durable {
		if n.dir == "" {
			var err error
			if n.dir, err = os.MkdirTemp(dataRoot, name+"-"); err != nil {
				return nil, err
			}
		}
		ns, _, err := store.OpenNode(n.dir, store.Options{Hasher: d.h})
		if err != nil {
			return nil, err
		}
		n.store = ns
		cfg.Store = ns
	}
	n.srv = server.New(cfg)
	return n, nil
}

// serveNode starts a node's listener (separate from startNode so
// recovery can time RecoverHosted before the node serves).
func (d *deployment) serveNode(n *node) error {
	p, err := d.serve(n.name, nodePaths, "server.write", n.srv.Handler())
	n.p = p
	return err
}

func (d *deployment) serve(name string, paths map[string]string, writeName string, h http.Handler) (*proc, error) {
	p, err := listen(name, d.tr.handler(name, paths, writeName, h))
	if err != nil {
		return nil, err
	}
	d.procs = append(d.procs, p)
	return p, nil
}

// close stops every listener and releases stores and data dirs.
func (d *deployment) close() {
	for _, p := range d.procs {
		p.kill()
	}
	if d.coord != nil {
		d.coord.Close()
	}
	if d.single != nil {
		d.single.Close()
	}
	for _, n := range d.nodes {
		n.srv.Close()
		if n.store != nil {
			n.store.Close()
		}
		if n.dir != "" {
			os.RemoveAll(n.dir)
		}
	}
}
