package experiments

import (
	"fmt"
	"time"

	"ritm/internal/cert"
	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/ra"
	"ritm/internal/serial"
	"ritm/internal/tlssim"
	"ritm/internal/workload"
)

// tab3Env is the shared fixture for the processing-time experiments: an
// RA replica of the largest-CRL dictionary, a 3-certificate chain, and the
// handshake bytes DPI operates on.
type tab3Env struct {
	replica     *dictionary.Replica
	pub         []byte
	present     []serial.Number // revoked serials (presence proofs)
	absent      []serial.Number // unrevoked serials (absence proofs)
	recordHdr   []byte
	chainBody   []byte // Certificate handshake body with a 3-cert chain
	baseEntries int
}

// Tab3 reproduces Table III: per-operation processing time in µs (max /
// min / avg over 500 runs) for the RA-side operations (TLS detection,
// certificate parsing, proof construction) and the client-side operations
// (proof validation, signature + freshness validation), against the
// largest-CRL dictionary. Each run is the fastest of tab3Samples timed
// batches, and the operations are measured interleaved.
func Tab3(quick bool) (*Table, error) {
	env, err := buildTab3Env(quick)
	if err != nil {
		return nil, err
	}
	iters := 500
	if quick {
		iters = 50
	}
	t := &Table{
		ID:      "tab3",
		Title:   "Processing time in µs, 500 runs (Tab III)",
		Columns: []string{"entity", "operation", "max", "min", "avg"},
	}
	for _, row := range tab3Rows(env, iters) {
		t.AddRow(row.entity, row.op, micros(row.t.Max), micros(row.t.Min), micros(row.t.Avg))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("dictionary size: %d revocations", env.replica.Count()),
		fmt.Sprintf("each run: fastest of %d timed batches; operations sampled round-robin", tab3Samples))
	return t, nil
}

type tab3Row struct {
	entity, op string
	t          timing
}

// subjectStatus pairs a status with the serial it is about, for the
// client-side validation measurements.
type subjectStatus struct {
	sn     serial.Number
	status *dictionary.Status
}

// tab3Samples is how many timed batches each Table III sample is the
// fastest of (see measureInterleaved).
const tab3Samples = 3

// tab3Rows measures the five Table III operations, interleaved.
func tab3Rows(env *tab3Env, iters int) []tab3Row {
	j := 0
	nextAbsent := func() serial.Number {
		s := env.absent[j%len(env.absent)]
		j++
		return s
	}

	// Client-side: pre-build a mixed pool of presence and absence statuses.
	now := time.Now().Unix()
	statuses := make([]subjectStatus, 64)
	for k := range statuses {
		sn := env.present[k%len(env.present)]
		if k%2 == 0 {
			sn = nextAbsent()
		}
		st, err := env.replica.Prove(sn)
		if err != nil {
			panic(err)
		}
		statuses[k] = subjectStatus{sn: sn, status: st}
	}
	k, m := 0, 0
	rows := []tab3Row{
		{entity: "RA", op: "TLS detection (DPI)"},
		{entity: "RA", op: "Certificates parsing (DPI)"},
		{entity: "RA", op: "Proof construction"},
		{entity: "Client", op: "Proof validation"},
		{entity: "Client", op: "Sig. and freshness valid."},
	}
	timings := measureInterleaved(iters, tab3Samples, []probe{
		{512, func() {
			ra.DetectRecord(env.recordHdr)
		}},
		{8, func() {
			if _, err := ra.ParseCertificates(env.chainBody); err != nil {
				panic(err)
			}
		}},
		{4, func() {
			if _, err := env.replica.Prove(nextAbsent()); err != nil {
				panic(err)
			}
		}},
		{4, func() {
			ss := statuses[k%len(statuses)]
			k++
			if _, err := ss.status.Proof.Verify(ss.sn, ss.status.Root.Root, ss.status.Root.N); err != nil {
				panic(err)
			}
		}},
		{4, func() {
			ss := statuses[m%len(statuses)]
			m++
			if err := ss.status.Root.VerifySignature(env.pub); err != nil {
				panic(err)
			}
			p := ss.status.Root.Period(now)
			if err := cryptoutil.VerifyChainValue(ss.status.Root.Anchor, ss.status.Freshness, p); err != nil {
				panic(err)
			}
		}},
	})
	for i := range rows {
		rows[i].t = timings[i]
	}
	return rows
}

// DictOps reproduces the §VII-D dictionary-update measurements: a CA
// inserting a 1,000-revocation batch (tree rebuild + chain rotation +
// signing) and an RA replaying it (rebuild + signature + root check). The
// paper does not state the base dictionary size for its 2.93 ms figure;
// both a small base (matching the paper's magnitude) and the largest-CRL
// base (the worst case for our O(n)-rebuild tree) are reported.
func DictOps(quick bool) (*Table, error) {
	bases := []int{dictOpsSmallBase, workload.LargestCRLEntries}
	iters := 10
	if quick {
		// Keep an order of magnitude between the bases so the O(n)-rebuild
		// ordering is observable even under noisy timing.
		bases = []int{dictOpsSmallBase, 100_000}
		iters = 3
	}
	t := &Table{
		ID:      "dictops",
		Title:   "Dictionary batch operations, 1,000 revocations (§VII-D), ms",
		Columns: []string{"entity", "operation", "base n", "max ms", "min ms", "avg ms"},
		Notes: []string{
			"insert cost is dominated by the full O(n) rebuild at large n; the paper's",
			"2.93 ms corresponds to a small base dictionary",
		},
	}
	for _, base := range bases {
		if err := dictOpsAt(t, base, iters); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// dictOpsSmallBase is the average-CRL-sized base dictionary (§VII-A).
const dictOpsSmallBase = 5_440

func dictOpsAt(t *Table, entries, iters int) error {
	authority, gen, err := buildAuthority(entries)
	if err != nil {
		return err
	}
	replica := dictionary.NewReplica(authority.CA(), authority.PublicKey())
	seed, err := authority.LogSuffix(0, authority.Count())
	if err != nil {
		return err
	}
	if err := replica.Update(&dictionary.IssuanceMessage{Serials: seed, Root: authority.SignedRoot()}); err != nil {
		return err
	}

	now := time.Now().Unix()
	insertT := timing{Min: time.Duration(1<<63 - 1)}
	updateT := timing{Min: time.Duration(1<<63 - 1)}
	var insertSum, updateSum time.Duration
	for i := 0; i < iters; i++ {
		batch := gen.NextN(1000)
		start := time.Now()
		msg, err := authority.Insert(batch, now)
		if err != nil {
			return err
		}
		d := time.Since(start)
		insertSum += d
		insertT.Max = max(insertT.Max, d)
		insertT.Min = min(insertT.Min, d)

		start = time.Now()
		if err := replica.Update(msg); err != nil {
			return err
		}
		d = time.Since(start)
		updateSum += d
		updateT.Max = max(updateT.Max, d)
		updateT.Min = min(updateT.Min, d)
	}
	insertT.Avg = insertSum / time.Duration(iters)
	updateT.Avg = updateSum / time.Duration(iters)

	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
	t.AddRow("CA", "insert 1,000 (rebuild+chain+sign)", entries, ms(insertT.Max), ms(insertT.Min), ms(insertT.Avg))
	t.AddRow("RA", "update 1,000 (replay+verify)", entries, ms(updateT.Max), ms(updateT.Min), ms(updateT.Avg))
	return nil
}

// Throughput derives the §VII-D headline rates from the Table III
// measurements: non-TLS packets/s an RA can classify, RITM-supported
// handshakes/s it can serve, and revocation statuses/s a client can
// validate.
func Throughput(quick bool) (*Table, error) {
	env, err := buildTab3Env(quick)
	if err != nil {
		return nil, err
	}
	iters := 200
	if quick {
		iters = 30
	}
	rows := tab3Rows(env, iters)
	byOp := map[string]timing{}
	for _, r := range rows {
		byOp[r.op] = r.t
	}
	perSecond := func(d time.Duration) string {
		if d <= 0 {
			return "∞"
		}
		return fmt.Sprintf("%.0f", float64(time.Second)/float64(d))
	}
	detect := byOp["TLS detection (DPI)"].Avg
	handshake := detect + byOp["Certificates parsing (DPI)"].Avg + byOp["Proof construction"].Avg
	validate := byOp["Proof validation"].Avg + byOp["Sig. and freshness valid."].Avg

	t := &Table{
		ID:      "throughput",
		Title:   "Derived throughput (§VII-D)",
		Columns: []string{"entity", "metric", "ops/s"},
	}
	t.AddRow("RA", "non-TLS packets classified", perSecond(detect))
	t.AddRow("RA", "RITM-supported handshakes", perSecond(handshake))
	t.AddRow("Client", "revocation-status validations", perSecond(validate))
	return t, nil
}

// buildAuthority creates a dictionary authority preloaded with entries
// revocations, returning it with its serial generator for further batches.
func buildAuthority(entries int) (*dictionary.Authority, *serial.Generator, error) {
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, nil, err
	}
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     "bench-ca",
		Signer: signer,
		Delta:  10 * time.Second,
	}, time.Now().Unix())
	if err != nil {
		return nil, nil, err
	}
	gen := serial.NewGenerator(seriesSeed, nil)
	if entries > 0 {
		if _, err := auth.Insert(gen.NextN(entries), time.Now().Unix()); err != nil {
			return nil, nil, err
		}
	}
	return auth, gen, nil
}

// buildTab3Env constructs the measurement fixture.
func buildTab3Env(quick bool) (*tab3Env, error) {
	entries := workload.LargestCRLEntries
	if quick {
		entries = 10_000
	}
	auth, gen, err := buildAuthority(entries)
	if err != nil {
		return nil, err
	}
	replica := dictionary.NewReplica(auth.CA(), auth.PublicKey())
	log, err := auth.LogSuffix(0, auth.Count())
	if err != nil {
		return nil, err
	}
	if err := replica.Update(&dictionary.IssuanceMessage{Serials: log, Root: auth.SignedRoot()}); err != nil {
		return nil, err
	}

	chainBody, err := threeCertChainBody()
	if err != nil {
		return nil, err
	}

	present := log[:min(len(log), 256)]
	absent := make([]serial.Number, 256)
	for i := range absent {
		absent[i] = gen.Next() // same generator: unique vs every revoked serial
	}
	return &tab3Env{
		replica:     replica,
		pub:         auth.PublicKey(),
		present:     present,
		absent:      absent,
		recordHdr:   []byte{22, 3, 3, 0x01, 0x40}, // a 320-byte handshake record
		chainBody:   chainBody,
		baseEntries: entries,
	}, nil
}

// threeCertChainBody builds root → intermediate → leaf (the most common
// chain length, §VII-D) and returns the Certificate handshake body an RA
// parses in flight.
func threeCertChainBody() ([]byte, error) {
	rootKey, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	now := time.Now().Unix()
	rootCert, err := cert.SelfSigned("bench-root", rootKey, now-1, now+1<<20, 10)
	if err != nil {
		return nil, err
	}
	interKey, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	interCert, err := cert.Issue("bench-root", rootKey, cert.Template{
		SerialNumber: serial.FromUint64(2),
		Subject:      "bench-intermediate",
		NotBefore:    now - 1,
		NotAfter:     now + 1<<20,
		PublicKey:    interKey.Public(),
		IsCA:         true,
	})
	if err != nil {
		return nil, err
	}
	leafKey, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	leafCert, err := cert.Issue("bench-intermediate", interKey, cert.Template{
		SerialNumber: serial.FromUint64(3),
		Subject:      "example.com",
		NotBefore:    now - 1,
		NotAfter:     now + 1<<20,
		PublicKey:    leafKey.Public(),
	})
	if err != nil {
		return nil, err
	}
	chain := cert.Chain{leafCert, interCert, rootCert}
	return (&tlssim.CertificateMsg{Chain: chain}).Marshal().Body, nil
}
