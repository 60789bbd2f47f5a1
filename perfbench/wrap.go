package main

import (
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"ritm/internal/ca"
	"ritm/internal/cdn"
	"ritm/internal/dictionary"
	"ritm/internal/interception"
	"ritm/internal/serial"
)

// The wrappers below measure each layer from outside: they sit on the
// interfaces the stack is assembled from, forward every call unchanged
// and record one span per call when tracing is on. Control-plane spans
// carry the batch the benchmark is driving (batchID); data-plane spans
// carry linking keys resolved after the run.

// batchID is the control-plane batch in progress (-1 between batches).
var batchID atomic.Int64

func init() { batchID.Store(-1) }

// timedPublisher wraps the ca.Publisher (the origin DistributionPoint):
// PublishIssuance is the origin's ingest of a CA batch.
type timedPublisher struct {
	next ca.Publisher
	tr   *Tracer
}

func (p *timedPublisher) PublishIssuance(msg *dictionary.IssuanceMessage) error {
	start := time.Now()
	err := p.next.PublishIssuance(msg)
	p.tr.Record("cdn.origin.ingest", start, time.Now(), batchID.Load(), 0, 0)
	return err
}

func (p *timedPublisher) PublishFreshness(st *dictionary.FreshnessStatement) error {
	start := time.Now()
	err := p.next.PublishFreshness(st)
	p.tr.Record("cdn.origin.freshness", start, time.Now(), batchID.Load(), 0, 0)
	return err
}

// timedOrigin wraps the cdn.Origin handed to an edge or an RA; span names
// the hop the pull crosses ("cdn.pop.pull" is an RA pulling from its PoP).
type timedOrigin struct {
	next cdn.Origin
	span string
	tr   *Tracer
}

func (o *timedOrigin) Pull(caID dictionary.CAID, from uint64) (*cdn.PullResponse, error) {
	start := time.Now()
	resp, err := o.next.Pull(caID, from)
	o.tr.Record(o.span, start, time.Now(), batchID.Load(), 0, 0)
	return resp, err
}

func (o *timedOrigin) LatestRoot(caID dictionary.CAID) (*dictionary.SignedRoot, error) {
	return o.next.LatestRoot(caID)
}

func (o *timedOrigin) CAs() ([]dictionary.CAID, error) { return o.next.CAs() }

// timedReplicatorOrigin forwards cdn.Replicator: the wrapped origins are
// cdn.HTTPClients, which implement it, and a caller that type-asserts the
// wrapper must find the same capabilities as on the client itself.
type timedReplicatorOrigin struct {
	*timedOrigin
	rep cdn.Replicator
}

func (o timedReplicatorOrigin) Replicate(caID dictionary.CAID, fromLSN uint64) (*cdn.ReplicationResponse, error) {
	return o.rep.Replicate(caID, fromLSN)
}

// wrapOrigin returns next wrapped in a timedOrigin, which also implements
// cdn.Replicator when next does.
func wrapOrigin(next cdn.Origin, span string, tr *Tracer) cdn.Origin {
	base := &timedOrigin{next: next, span: span, tr: tr}
	if rep, ok := next.(cdn.Replicator); ok {
		return timedReplicatorOrigin{base, rep}
	}
	return base
}

// timedStatus wraps the interception.StatusSource of one interceptor. Its
// spans are keyed by the connection goroutine and carry the site the
// serial belongs to, which is how they are linked to arrivals.
type timedStatus struct {
	next   interception.StatusSource
	tr     *Tracer
	siteOf func(serial.Number) int64
}

func (s *timedStatus) Status(caID dictionary.CAID, sn serial.Number) (*dictionary.Status, []byte, error) {
	if !s.tr.On() {
		return s.next.Status(caID, sn)
	}
	start := time.Now()
	st, enc, err := s.next.Status(caID, sn)
	s.tr.Record("interception.status", start, time.Now(), -1, goid(), s.siteOf(sn))
	return st, enc, err
}

// timedDial is interception.Config.DialUpstream: the default TCP dial,
// with a span keyed by the connection goroutine and carrying the local
// port, which the upstream server sees as the remote port.
func timedDial(tr *Tracer) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		if !tr.On() {
			return net.Dial("tcp", addr)
		}
		start := time.Now()
		c, err := net.Dial("tcp", addr)
		var port int64
		if err == nil {
			port = portOf(c.LocalAddr())
		}
		tr.Record("interception.upstream_dial", start, time.Now(), -1, goid(), port)
		return c, err
	}
}

// portOf returns the TCP port of a loopback address.
func portOf(a net.Addr) int64 {
	if ta, ok := a.(*net.TCPAddr); ok {
		return int64(ta.Port)
	}
	_, p, err := net.SplitHostPort(a.String())
	if err != nil {
		return 0
	}
	n, _ := strconv.ParseInt(p, 10, 64) // unparsable port: 0, unlinked
	return n
}
