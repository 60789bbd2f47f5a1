package main

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"strings"
	"time"

	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/interception"
	"ritm/internal/ra"
	"ritm/internal/ritmclient"
	"ritm/internal/serial"
	"ritm/internal/tlssim"
)

// handshakeTimeout bounds one client handshake; a stuck one is a failure.
const handshakeTimeout = 10 * time.Second

// dataPlane is the handshake workload's part of the stack: per-site
// certificates (a RITM-CA-issued tlssim leaf and an X.509 leaf sharing one
// serial), the two upstream servers, and on every RA one real-TLS
// interceptor and one tlssim DPI proxy.
type dataPlane struct {
	names   []string
	serials []serial.Number
	revoked []bool
	bySN    map[string]int64 // serial bytes → site, for span linking

	tlsCerts []tls.Certificate
	simCfgs  []*tlssim.Config
	simPool  *cert.Pool
	mintPool *x509.CertPool

	tlsUp, simUp *upstream

	interceptors []*interception.Interceptor
	proxies      []*ra.Proxy
}

func siteName(i int) string { return fmt.Sprintf("site%04d.perfbench.test", i) }

// newDataPlane issues every site's certificates and starts the upstreams.
func newDataPlane(s *stack, cfg stackConfig) (*dataPlane, error) {
	d := &dataPlane{revoked: cfg.revoked, bySN: make(map[string]int64, cfg.sites)}
	simKey, err := cryptoutil.NewSigner(rand.Reader)
	if err != nil {
		return nil, err
	}
	x509CAKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	leafKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	// The X.509 issuer's common name is the RITM CA identity: that is how
	// the interceptor maps a real leaf to its dictionary.
	caTmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: string(caID)},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.Add(24 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	caDER, err := x509.CreateCertificate(rand.Reader, caTmpl, caTmpl, &x509CAKey.PublicKey, x509CAKey)
	if err != nil {
		return nil, err
	}
	x509CA, err := x509.ParseCertificate(caDER)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.sites; i++ {
		name := siteName(i)
		var leaf *cert.Certificate
		for leaf == nil || leaf.SerialNumber.Equal(serial.FromUint64(0)) {
			if leaf, err = s.ca.IssueServerCertificate(name, simKey.Public()); err != nil {
				return nil, err
			}
		}
		tmpl := &x509.Certificate{
			SerialNumber: new(big.Int).SetBytes(leaf.SerialNumber.Raw()),
			Subject:      pkix.Name{CommonName: name},
			DNSNames:     []string{name},
			NotBefore:    now.Add(-time.Hour),
			NotAfter:     now.Add(12 * time.Hour),
			KeyUsage:     x509.KeyUsageDigitalSignature,
			ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		}
		der, err := x509.CreateCertificate(rand.Reader, tmpl, x509CA, &leafKey.PublicKey, x509CAKey)
		if err != nil {
			return nil, err
		}
		parsed, err := x509.ParseCertificate(der)
		if err != nil {
			return nil, err
		}
		if _, sn, err := interception.IdentityFromX509(parsed); err != nil || !sn.Equal(leaf.SerialNumber) {
			return nil, fmt.Errorf("site %d: X.509 serial does not map to dictionary serial %v", i, leaf.SerialNumber)
		}
		d.names = append(d.names, name)
		d.serials = append(d.serials, leaf.SerialNumber)
		d.bySN[string(leaf.SerialNumber.Raw())] = int64(i)
		d.tlsCerts = append(d.tlsCerts, tls.Certificate{Certificate: [][]byte{der}, PrivateKey: leafKey, Leaf: parsed})
		d.simCfgs = append(d.simCfgs, &tlssim.Config{Chain: cert.Chain{leaf}, Key: simKey})
	}
	if d.simPool, err = cert.NewPool(s.ca.RootCertificate()); err != nil {
		return nil, err
	}
	byName := make(map[string]*tls.Certificate, len(d.names))
	for i := range d.names {
		byName[d.names[i]] = &d.tlsCerts[i]
	}
	tlsCfg := &tls.Config{
		GetCertificate: func(h *tls.ClientHelloInfo) (*tls.Certificate, error) {
			if c, ok := byName[h.ServerName]; ok {
				return c, nil
			}
			return nil, fmt.Errorf("no certificate for %q", h.ServerName)
		},
	}
	if d.tlsUp, err = startUpstream(func(raw net.Conn) { d.serveTLS(s.tr, raw, tlsCfg) }); err != nil {
		return nil, err
	}
	if d.simUp, err = startUpstream(func(raw net.Conn) { d.serveSim(s.tr, raw) }); err != nil {
		return nil, err
	}
	return d, nil
}

// revokedSerials lists the serials of the revoked sites.
func (d *dataPlane) revokedSerials() []serial.Number {
	var out []serial.Number
	for i, r := range d.revoked {
		if r {
			out = append(out, d.serials[i])
		}
	}
	return out
}

func (d *dataPlane) siteOf(sn serial.Number) int64 {
	if i, ok := d.bySN[string(sn.Raw())]; ok {
		return i
	}
	return -1
}

// attach starts one interceptor and one proxy per RA, once the fleet
// has synced. The interceptor's StatusSource and upstream dial are the
// benchmark's timed wrappers around the RA's store and the default dial.
func (d *dataPlane) attach(s *stack) error {
	mintRoot, err := interception.NewMintingRoot("Perfbench Bump Root", interception.KeyECDSA)
	if err != nil {
		return err
	}
	d.mintPool = x509.NewCertPool()
	d.mintPool.AddCert(mintRoot.Certificate())
	for _, agent := range s.agents {
		it, err := interception.Listen("127.0.0.1:0", interception.Config{
			Status:       &timedStatus{next: agent.Store(), tr: s.tr, siteOf: d.siteOf},
			Minter:       interception.NewMinter(mintRoot, 0),
			Target:       d.tlsUp.addr(),
			DialUpstream: timedDial(s.tr),
		})
		if err != nil {
			return err
		}
		d.interceptors = append(d.interceptors, it)
		p, err := agent.NewProxy("127.0.0.1:0", d.simUp.addr())
		if err != nil {
			return err
		}
		d.proxies = append(d.proxies, p)
	}
	return nil
}

func (d *dataPlane) close() {
	for _, it := range d.interceptors {
		it.Close()
	}
	for _, p := range d.proxies {
		p.Close()
	}
	if d.tlsUp != nil {
		d.tlsUp.close()
	}
	if d.simUp != nil {
		d.simUp.close()
	}
}

// upstream is one of the benchmark's own origin servers.
type upstream struct {
	ln    net.Listener
	conns connSet
	loop  chan struct{}
}

func startUpstream(handle func(net.Conn)) (*upstream, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	u := &upstream{ln: ln, loop: make(chan struct{})}
	go func() {
		defer close(u.loop)
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			if !u.conns.add(raw) {
				raw.Close()
				return
			}
			go func() {
				defer u.conns.done(raw)
				handle(raw)
			}()
		}
	}()
	return u, nil
}

func (u *upstream) addr() string { return u.ln.Addr().String() }

func (u *upstream) close() {
	u.ln.Close()
	<-u.loop
	u.conns.closeAll()
}

// serveTLS is the real-TLS origin: one handshake with the SNI's leaf,
// timed, then read until the interceptor hangs up.
func (d *dataPlane) serveTLS(tr *Tracer, raw net.Conn, cfg *tls.Config) {
	raw.SetDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck // best effort
	conn := tls.Server(raw, cfg)
	start := time.Now()
	err := conn.Handshake()
	if tr.On() && err == nil {
		tr.Record("upstream.tls_accept", start, time.Now(), -1, portOf(raw.RemoteAddr()), 0)
	}
	if err == nil {
		io.Copy(io.Discard, conn) //nolint:errcheck // drain until close
	}
}

// helloTag is how a benchmark client tells the tlssim origin which site
// and arrival a connection is for: tlssim's ClientHello has no server-name
// extension, so the client puts them in the first 12 bytes of its client
// random (the other 20 stay random) and the origin reads them back, as a
// real server would read SNI.
type helloTag struct {
	site    uint32
	arrival uint64
}

func (t helloTag) reader() io.Reader {
	var b [12]byte
	binary.BigEndian.PutUint32(b[:4], t.site)
	binary.BigEndian.PutUint64(b[4:], t.arrival)
	return io.MultiReader(bytes.NewReader(b[:]), rand.Reader)
}

// serveSim is the tlssim origin: it reads the ClientHello record, picks
// the tagged site's chain, replays the record into a tlssim server and
// times the handshake.
func (d *dataPlane) serveSim(tr *Tracer, raw net.Conn) {
	raw.SetDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck // best effort
	var hello bytes.Buffer
	rec, err := tlssim.ReadRecord(io.TeeReader(raw, &hello))
	if err != nil {
		return
	}
	hs, err := tlssim.ParseHandshake(rec.Payload)
	if err != nil || hs.Type != tlssim.TypeClientHello {
		return
	}
	ch, err := tlssim.ParseClientHello(hs.Body)
	if err != nil {
		return
	}
	site := binary.BigEndian.Uint32(ch.Random[:4])
	arrival := binary.BigEndian.Uint64(ch.Random[4:12])
	if int(site) >= len(d.simCfgs) {
		return
	}
	conn := tlssim.Server(&replayConn{Conn: raw, r: io.MultiReader(&hello, raw)}, d.simCfgs[site])
	start := time.Now()
	err = conn.Handshake()
	if tr.On() && err == nil {
		tr.Record("upstream.tlssim_accept", start, time.Now(), int64(arrival), 0, int64(site))
	}
	if err == nil {
		io.Copy(io.Discard, conn) //nolint:errcheck // drain until close
	}
}

// replayConn reads already-consumed bytes before the live connection.
type replayConn struct {
	net.Conn
	r io.Reader
}

func (c *replayConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// dialTLS runs one real-TLS handshake through interceptor it. It returns
// nil when the handshake completed and errRefused when the interceptor
// refused the site with a certificate_revoked alert.
func (d *dataPlane) dialTLS(it int, site int) error {
	raw, err := net.DialTimeout("tcp", d.interceptors[it].Addr().String(), handshakeTimeout)
	if err != nil {
		return err
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck // best effort
	conn := tls.Client(raw, &tls.Config{ServerName: d.names[site], RootCAs: d.mintPool})
	if err := conn.Handshake(); err != nil {
		if strings.Contains(err.Error(), "revoked certificate") {
			return errRefused
		}
		return err
	}
	return nil
}

// errRefused marks a handshake refused because the site is revoked.
var errRefused = errors.New("refused: certificate revoked")

// dialRITM runs one RITM-TLS handshake through RA proxy p, with
// ritmclient verifying every injected status (timed as
// ritmclient.check). nil means the handshake completed with at least one
// valid status; errRefused means a verified presence proof refused it.
func (d *dataPlane) dialRITM(tr *Tracer, p int, site int, arrival uint64) error {
	raw, err := net.DialTimeout("tcp", d.proxies[p].Addr().String(), handshakeTimeout)
	if err != nil {
		return err
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck // best effort
	verifier := ritmclient.NewVerifier(&ritmclient.Config{Pool: d.simPool, Delta: delta})
	onStatus := verifier.Handle
	if tr.On() {
		onStatus = func(rawStatus []byte, st *tlssim.ConnectionState) error {
			start := time.Now()
			err := verifier.Handle(rawStatus, st)
			tr.Record("ritmclient.check", start, time.Now(), int64(arrival), 0, int64(site))
			return err
		}
	}
	conn := tlssim.Client(raw, &tlssim.Config{
		Pool:        d.simPool,
		ServerName:  d.names[site],
		RequestRITM: true,
		OnStatus:    onStatus,
		Rand:        helloTag{site: uint32(site), arrival: arrival}.reader(),
	})
	err = conn.Handshake()
	switch {
	case err != nil && verifier.Revoked():
		return errRefused
	case err != nil:
		return err
	case verifier.Revoked():
		return errors.New("handshake completed despite a verified presence proof")
	case verifier.ValidCount() == 0:
		return ritmclient.ErrNoStatus
	}
	return nil
}
