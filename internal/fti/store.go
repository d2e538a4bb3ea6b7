// Package fti reproduces the FTI multilevel checkpoint library [9] with the
// LEGaTO GPU/CPU extension of paper Sec. IV: a single Protect call covers
// host, device and UVM addresses; checkpoints are written at four levels
// (L1 node-local NVMe, L2 partner copy, L3 Reed-Solomon group encoding,
// L4 global store); and the device paths come in the paper's two flavours —
// the *initial* implementation (page-fault UVM fetch, strictly sequential
// write) and the *async* implementation (chunked DMA copies overlapped with
// file I/O), whose gap reproduces the published 12.05× checkpoint and
// 5.13× recovery overhead reductions (Fig. 6).
package fti

import (
	"fmt"

	"legato/internal/sim"
)

// file is one stored checkpoint object. Phantom files carry only a size —
// used by TB-scale timing runs; real files carry checkpoint bytes so
// recovery correctness is testable.
type file struct {
	data    []byte
	size    int64
	phantom bool
	// preWritten marks files whose NVMe write time was already charged
	// chunk-by-chunk (the async path); localPut then skips the bulk charge.
	preWritten bool
}

// nodeFS is the node-local storage of one compute node: an NVMe device
// shared by the node's ranks, reachable from other nodes over the network.
type nodeFS struct {
	files map[string]*file
	// write and read serialise NVMe access per direction.
	write *sim.Pipe
	read  *sim.Pipe
	// net models the node's NIC for remote (partner/RS) storage traffic.
	net *sim.Pipe
}

// StoreConfig parametrises the storage model. Defaults are calibrated to
// the Fig. 6 testbed: node-local NVMe sustaining 4 GB/s per process with
// four processes per node, and a shared parallel file system whose
// bandwidth does not scale with node count (the reason multilevel
// checkpointing exists).
type StoreConfig struct {
	// Nodes is the number of compute nodes.
	Nodes int
	// NVMeWriteGBps is per-node NVMe write bandwidth (default 16 GB/s:
	// 4 processes × 4 GB/s).
	NVMeWriteGBps float64
	// NVMeReadGBps is per-node NVMe read bandwidth (default 16 GB/s).
	NVMeReadGBps float64
	// NetGBps is per-node NIC bandwidth for remote checkpoint traffic
	// (default 10 GB/s).
	NetGBps float64
	// PFSGBps is the aggregate parallel-file-system bandwidth shared by
	// all nodes (default 10 GB/s).
	PFSGBps float64
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.NVMeWriteGBps == 0 {
		c.NVMeWriteGBps = 16
	}
	if c.NVMeReadGBps == 0 {
		c.NVMeReadGBps = 16
	}
	if c.NetGBps == 0 {
		c.NetGBps = 10
	}
	if c.PFSGBps == 0 {
		c.PFSGBps = 10
	}
	return c
}

// Store is the checkpoint storage fabric shared by all ranks: per-node
// local stores plus a global (PFS) store. It survives across application
// runs, which is how restarted jobs find their checkpoints.
type Store struct {
	eng   *sim.Engine
	cfg   StoreConfig
	nodes []*nodeFS

	global         map[string]*file
	pfsWrite       *sim.Pipe
	pfsRead        *sim.Pipe
	meta           map[int]*rankMeta // rank → last committed checkpoint
	failedNodes    map[int]bool
	totalCkptBytes int64
}

// rankMeta records the last committed checkpoint of one rank.
type rankMeta struct {
	CkptID int
	Level  Level
	Iter   int
	VarIDs []int
}

// NewStore builds the storage fabric on eng.
func NewStore(eng *sim.Engine, cfg StoreConfig) (*Store, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("fti: store needs at least one node, got %d", cfg.Nodes)
	}
	cfg = cfg.withDefaults()
	s := &Store{
		eng:         eng,
		cfg:         cfg,
		global:      make(map[string]*file),
		pfsWrite:    sim.NewPipe(eng, cfg.PFSGBps*1e9, 100*sim.Microsecond),
		pfsRead:     sim.NewPipe(eng, cfg.PFSGBps*1e9, 100*sim.Microsecond),
		meta:        make(map[int]*rankMeta),
		failedNodes: make(map[int]bool),
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, &nodeFS{
			files: make(map[string]*file),
			write: sim.NewPipe(eng, cfg.NVMeWriteGBps*1e9, 20*sim.Microsecond),
			read:  sim.NewPipe(eng, cfg.NVMeReadGBps*1e9, 20*sim.Microsecond),
			net:   sim.NewPipe(eng, cfg.NetGBps*1e9, 5*sim.Microsecond),
		})
	}
	return s, nil
}

// Nodes returns the node count.
func (s *Store) Nodes() int { return len(s.nodes) }

// TotalCheckpointBytes reports cumulative checkpoint traffic (modelled).
func (s *Store) TotalCheckpointBytes() int64 { return s.totalCkptBytes }

// Rebind attaches the store's I/O pipes to a new engine. Checkpoint data
// persists across application runs (that is the point of a checkpoint
// store), but simulated time restarts with each run's engine.
func (s *Store) Rebind(eng *sim.Engine) {
	s.eng = eng
	s.pfsWrite = sim.NewPipe(eng, s.cfg.PFSGBps*1e9, 100*sim.Microsecond)
	s.pfsRead = sim.NewPipe(eng, s.cfg.PFSGBps*1e9, 100*sim.Microsecond)
	for _, n := range s.nodes {
		n.write = sim.NewPipe(eng, s.cfg.NVMeWriteGBps*1e9, 20*sim.Microsecond)
		n.read = sim.NewPipe(eng, s.cfg.NVMeReadGBps*1e9, 20*sim.Microsecond)
		n.net = sim.NewPipe(eng, s.cfg.NetGBps*1e9, 5*sim.Microsecond)
	}
}

// DropFile removes a single file from node n's store (targeted fault
// injection).
func (s *Store) DropFile(n int, name string) {
	delete(s.nodes[n].files, name)
}

// FailNode wipes node n's local storage, modelling a node loss. Level-1
// checkpoints of the node's ranks are gone; higher levels survive.
func (s *Store) FailNode(n int) {
	if n < 0 || n >= len(s.nodes) {
		panic(fmt.Sprintf("fti: FailNode(%d) with %d nodes", n, len(s.nodes)))
	}
	s.nodes[n].files = make(map[string]*file)
	s.failedNodes[n] = true
}

// localPut writes a file to node n's local store, charging NVMe write time
// to the calling process. remote=true additionally charges both NICs.
func (s *Store) localPut(p *sim.Proc, n int, name string, f *file, remote bool, fromNode int) {
	if !f.preWritten {
		if remote {
			p.TransferP(s.nodes[fromNode].net, f.size)
		}
		p.TransferP(s.nodes[n].write, f.size)
	}
	s.nodes[n].files[name] = f
	s.totalCkptBytes += f.size
}

// localGet reads a file from node n, charging NVMe read time (plus network
// time when reading from a remote node).
func (s *Store) localGet(p *sim.Proc, n int, name string, remote bool, toNode int) (*file, bool) {
	f, ok := s.nodes[n].files[name]
	if !ok {
		return nil, false
	}
	p.TransferP(s.nodes[n].read, f.size)
	if remote {
		p.TransferP(s.nodes[toNode].net, f.size)
	}
	return f, true
}

// localExists checks for a file without charging I/O time (metadata op).
func (s *Store) localExists(n int, name string) bool {
	_, ok := s.nodes[n].files[name]
	return ok
}

// globalPut writes to the PFS, charging the shared PFS write pipe.
func (s *Store) globalPut(p *sim.Proc, name string, f *file) {
	p.TransferP(s.pfsWrite, f.size)
	s.global[name] = f
	s.totalCkptBytes += f.size
}

// globalGet reads from the PFS.
func (s *Store) globalGet(p *sim.Proc, name string) (*file, bool) {
	f, ok := s.global[name]
	if !ok {
		return nil, false
	}
	p.TransferP(s.pfsRead, f.size)
	return f, true
}

// commitMeta records rank r's last successful checkpoint. Metadata is tiny
// and replicated (FTI keeps it on every level); no I/O time is charged.
func (s *Store) commitMeta(r int, m *rankMeta) { s.meta[r] = m }

// lastMeta returns rank r's last committed checkpoint, if any.
func (s *Store) lastMeta(r int) (*rankMeta, bool) {
	m, ok := s.meta[r]
	return m, ok
}

// cloneBytes snapshots a byte slice (checkpoint isolation: later
// application writes must not mutate stored checkpoints).
func cloneBytes(b []byte) []byte {
	return append([]byte(nil), b...)
}
