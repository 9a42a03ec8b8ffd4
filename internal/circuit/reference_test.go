package circuit_test

// Reference oracles: the fmt-based QASM parser and writer that qasm.go's
// allocation-lean codec replaced, kept verbatim (renamed, and with the
// parser noting text after a qubit argument) so that the codec is checked
// against them.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/guoq-dev/guoq/internal/benchmarks"
	"github.com/guoq-dev/guoq/internal/circuit"
	"github.com/guoq-dev/guoq/internal/gate"
	"github.com/guoq-dev/guoq/internal/gateset"
)

// TestWriteQASMMatchesReference requires the writer's text to equal the
// reference's byte for byte: on the NISQ suite in every built-in gate set, on
// the Clifford+T suite, on random circuits over the whole vocabulary, and
// on angles at the edges of float64.
func TestWriteQASMMatchesReference(t *testing.T) {
	check := func(name string, c *circuit.Circuit) {
		t.Helper()
		if got, want := c.WriteQASM(), refWriteQASM(c); got != want {
			t.Fatalf("%s: WriteQASM differs from the reference\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
	for _, gs := range gateset.All() {
		for _, b := range benchmarks.Suite() {
			c, err := gateset.Translate(b.Circuit, gs)
			if err != nil {
				continue // not representable in a discrete set
			}
			check(gs.Name+"/"+b.Name, c)
		}
	}
	for _, b := range benchmarks.CliffordTSuite() {
		check("cliffordt/"+b.Name, b.Circuit)
	}

	vocab := gate.Names()
	sort.Slice(vocab, func(i, j int) bool { return vocab[i] < vocab[j] })
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 200; i++ {
		check(fmt.Sprintf("random %d", i), circuit.Random(3+rng.Intn(20), rng.Intn(300), vocab, rng))
	}

	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		2.2250738585072014e-308, 1e21, 1e20, 1e-5, 1e-4, 123456789012345678,
		math.MaxFloat64, -math.MaxFloat64, math.Pi, 0.1 + 0.2,
	}
	for i := 0; i < 1000; i++ {
		special = append(special, math.Float64frombits(rng.Uint64()))
	}
	c := circuit.New(1 << 20)
	for i := 0; i+3 <= len(special); i += 3 {
		q := rng.Intn(c.NumQubits)
		c.Gates = append(c.Gates, gate.Gate{Name: gate.U3, Qubits: []int{q}, Params: special[i : i+3]})
	}
	c.Gates = append(c.Gates, gate.Gate{Name: gate.Rz, Qubits: []int{c.NumQubits - 1}, Params: special[len(special)-1:]})
	check("special angles", c)
	check("0 qubits", circuit.New(0))
}

// FuzzWriteQASMMatchesReference requires the writer's bytes to equal the
// reference's on circuits over the whole vocabulary whose angles are any
// float64 bits: the fuzzer's three, the edges of float64 (NaN, ±Inf, −0,
// subnormals), fresh random bits, repeats of earlier angles, and angles
// built to share a slot of the writer's angle table with an earlier one.
func FuzzWriteQASMMatchesReference(f *testing.F) {
	f.Add(uint64(0x7ff8000000000001), math.Float64bits(math.Copysign(0, -1)), uint64(1), int64(1), uint16(300))
	f.Add(math.Float64bits(math.Pi/2), math.Float64bits(-math.Pi/2), math.Float64bits(math.Pi/4), int64(2), uint16(60))
	f.Add(math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), math.Float64bits(0.1+0.2), int64(3), uint16(1000))
	vocab := gate.Names()
	sort.Slice(vocab, func(i, j int) bool { return vocab[i] < vocab[j] })
	f.Fuzz(func(t *testing.T, a, b, c uint64, seed int64, gates uint16) {
		rng := rand.New(rand.NewSource(seed))
		pool := []float64{
			math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c),
			math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
			math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
			math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-5, math.Pi,
		}
		// collide returns new bits in the table slot of old.
		collide := func(old uint64) float64 {
			for {
				if o := rng.Uint64(); o != old && circuit.AngleSlot(o) == circuit.AngleSlot(old) {
					return math.Float64frombits(o)
				}
			}
		}
		circ := circuit.New(3 + rng.Intn(30))
		for i := 0; i < int(gates)%1500; i++ {
			n := vocab[rng.Intn(len(vocab))]
			spec, _ := gate.SpecOf(n)
			ps := make([]float64, spec.Params)
			for j := range ps {
				switch rng.Intn(4) {
				case 0:
					ps[j] = pool[rng.Intn(len(pool))]
				case 1:
					ps[j] = math.Float64frombits(rng.Uint64())
				default:
					ps[j] = collide(math.Float64bits(pool[rng.Intn(len(pool))]))
				}
				pool = append(pool, ps[j])
			}
			circ.Gates = append(circ.Gates, gate.Gate{Name: n, Qubits: rng.Perm(circ.NumQubits)[:spec.Qubits], Params: ps})
		}
		if got, want := circ.WriteQASM(), refWriteQASM(circ); got != want {
			t.Fatalf("WriteQASM differs from the reference\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}

// FuzzParseQASMMatchesReference runs the parser and the reference side by
// side on any text. They accept and reject the same programs, and read
// the same qubit count, gate names, qubits and parameter bits, with two
// departures: ParseQASM rejects text after a qubit argument's ']', which
// the reference drops ("h q[0] q[1]" reads as "h q[0]"), and it rejects
// a qubit count past math.MaxInt, on which the reference panics. Error text
// may differ.
func FuzzParseQASMMatchesReference(f *testing.F) {
	for _, s := range roundTripSeeds {
		f.Add(s)
	}
	for _, s := range parseFragments {
		f.Add(fragmentProgram(s))
	}
	for _, s := range []string{
		"OPENQASM 2.0;\nINCLUDE \"qelib1.inc\";\nQREG q[2];\nCREG c[2];\nH q[0];\nCX q[0],q[1];\nMEASURE q[0] -> c[0];\n",
		"qreg q[2];\nh q[0];\ncx q[0],q[1]",
		"qreg q[2];\nrz(pi // half a turn\n/2) q[0];\ncx q[0], // control\nq[1];\n",
		"qreg q[3];\nccx q[0],q[1],q[2],;\nrz(pi/4,) q[0];\nu3(1,2,3, ) q[1];\ncx q[0],,q[1];\n",
		"qreg q[1];\nh\u00a0q[0];\nrz(1)\u00a0q[0];\n",
		"qreg q[2];\nh q[0] q[1];\n",
		"qreg q[2];\ncx q[0],q[1] q[0];\n",
		"qreg q[1];\nh q[0]junk;\n",
		"qreg q[1];\n\u0130d q[0];\n\u0130nclude \"x\";\nbarr\u0130er q[0];\n",
		"qreg a[9223372036854775807];\nqreg b[1];\n",
		// The scanner's edges: case, control and Unicode spaces, comments
		// inside parameter lists, number forms, bracket contents, and
		// registers whose names start like keywords.
		"OpenQasm 2.0;\nInClUdE \"qelib1.inc\";\nQReg q[2];\nCReg c[2];\nrZ(pi/2) Q[0];\nCx q[0],q[1];\nU3(PI,0,0) q[1];\n",
		"qreg q[2];\nBarrier q[0];\nMEASURE q[0] -> c[0];\nReSeT q[1];\nToffoli q[0],q[1];\nCNOT q[0],q[1];\nSxDg q[1];\n",
		"qreg q[2];\r\nh\tq[0];\r\ncx\tq[0],\tq[1];\r\nrz(1)\rq[1];\rx q[0];\n",
		"qreg\u00a0q[2];\n\u0085h\u2028q[0]\u00a0;\ncx\u00a0q[0]\u0085,\u2028q[1];\nrz(\u00a01\u2028)\u0085q[0];\n",
		"qreg q[1];\nrz(1 // one\n+ 2) q[0];\nu3(// a\n1,2 // b\n,3) q[0];\nrz(//\n) q[0];\nrz(1//\n) q[0];\n",
		"qreg q[1];\nrz(+1) q[0];\nrz(.5) q[0];\nrz(1.) q[0];\nrz(1E+5) q[0];\nrz(-1e-5) q[0];\nrz( -0 ) q[0];\n",
		"qreg q[1];\nrz(2pi) q[0];\n",
		"qreg q[1];\nrz(1e+-5) q[0];\n",
		"qreg q[2];\nh q[01];\ncx q[ 0 ],q[\t1\t];\nh q[+1];\nh q[0//c\n];\n",
		"qreg a[1];\nqreg qregs[2];\nqreg b[3];\ncx qregs[1],b[2];\nh a[0];\nccx b[0],qregs[0],a[0];\n",
		"qreg a(,)b[2];\nqreg [1];\nrz(1) a(,)b[0];\nx [0];\ncp(1) a(,)b[1],[0];\n",
		"qreg a(b[2];\nh a(b[0];\n",
	} {
		f.Add(s)
	}
	// More distinct numbers, each read twice, than the scanner's memo of
	// numbers has slots.
	var many strings.Builder
	many.WriteString("qreg q[2];\n")
	for i := 0; i < 160; i++ {
		fmt.Fprintf(&many, "rz(%d.%d) q[%d];\n", i%80, i%80*7, i%2)
	}
	f.Add(many.String())
	f.Fuzz(func(t *testing.T, src string) {
		var trailing bool
		want, wantErr := refParseQASMRecover(src, &trailing)
		got, err := circuit.ParseQASM(src)
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("accepted what the reference rejects (%v): %q", wantErr, src)
			}
			return
		case trailing:
			if err == nil {
				t.Fatalf("accepted text after a qubit argument: %q", src)
			}
			return
		case err != nil:
			t.Fatalf("rejected what the reference accepts: %v\n%q", err, src)
		}
		if got.NumQubits != want.NumQubits || len(got.Gates) != len(want.Gates) {
			t.Fatalf("%d qubits, %d gates; reference %d qubits, %d gates: %q",
				got.NumQubits, len(got.Gates), want.NumQubits, len(want.Gates), src)
		}
		for i, g := range got.Gates {
			w := want.Gates[i]
			same := g.Name == w.Name && len(g.Qubits) == len(w.Qubits) && len(g.Params) == len(w.Params)
			for j := 0; same && j < len(g.Qubits); j++ {
				same = g.Qubits[j] == w.Qubits[j]
			}
			for j := 0; same && j < len(g.Params); j++ {
				same = math.Float64bits(g.Params[j]) == math.Float64bits(w.Params[j])
			}
			if !same {
				t.Fatalf("gate %d: %v, reference %v: %q", i, g, w, src)
			}
		}
	})
}

// refParseQASMRecover runs the reference parser, reporting its panic on a
// qubit count past math.MaxInt as a rejection.
func refParseQASMRecover(src string, trailing *bool) (c *circuit.Circuit, err error) {
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("reference panicked: %v", r)
		}
	}()
	return refParseQASM(src, trailing)
}

// refParseQASM is the fmt-based ParseQASM. It sets *trailing when it accepts
// a qubit argument with text after its ']', the text ParseQASM now rejects.
func refParseQASM(src string, trailing *bool) (*circuit.Circuit, error) {
	regs := map[string]refReg{} // register name -> flattened range
	total := 0
	var c *circuit.Circuit

	// Statements are ';'-separated; strip comments line by line first.
	var clean strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte('\n')
	}
	stmts := strings.Split(clean.String(), ";")
	for sn, raw := range stmts {
		st := strings.TrimSpace(raw)
		if st == "" {
			continue
		}
		low := strings.ToLower(st)
		switch {
		case strings.HasPrefix(low, "openqasm"), strings.HasPrefix(low, "include"),
			strings.HasPrefix(low, "creg"), strings.HasPrefix(low, "barrier"),
			strings.HasPrefix(low, "measure"), strings.HasPrefix(low, "reset"):
			continue
		case strings.HasPrefix(low, "qreg"):
			name, size, err := refParseReg(st[4:])
			if err != nil {
				return nil, fmt.Errorf("qasm: statement %d: %v", sn, err)
			}
			if _, dup := regs[name]; dup {
				return nil, fmt.Errorf("qasm: duplicate register %q", name)
			}
			if c != nil {
				return nil, fmt.Errorf("qasm: qreg %q declared after gate statements", name)
			}
			regs[name] = refReg{base: total, size: size}
			total += size
		default:
			if c == nil {
				c = circuit.New(total)
			}
			g, err := refParseGateStmt(st, regs, trailing)
			if err != nil {
				return nil, fmt.Errorf("qasm: statement %d (%q): %v", sn, st, err)
			}
			c.Append(g)
		}
	}
	if c == nil {
		c = circuit.New(total)
	}
	return c, nil
}

// refReg is one declared quantum register's slice of the flattened
// qubit space.
type refReg struct{ base, size int }

func refParseReg(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	lb := strings.Index(s, "[")
	rb := strings.Index(s, "]")
	if lb < 0 || rb < lb {
		return "", 0, fmt.Errorf("malformed register declaration %q", s)
	}
	name := strings.TrimSpace(s[:lb])
	size, err := strconv.Atoi(strings.TrimSpace(s[lb+1 : rb]))
	if err != nil || size <= 0 {
		return "", 0, fmt.Errorf("bad register size in %q", s)
	}
	return name, size, nil
}

func refParseGateStmt(st string, regs map[string]refReg, trailing *bool) (gate.Gate, error) {
	// Forms: "name arg, arg" or "name(expr, expr) arg, arg".
	var name, paramStr, argStr string
	if i := strings.Index(st, "("); i >= 0 && i < strings.IndexAny(st+"[", "[") {
		j := refMatchParen(st, i)
		if j < 0 {
			return gate.Gate{}, fmt.Errorf("unbalanced parens")
		}
		name = strings.TrimSpace(st[:i])
		paramStr = st[i+1 : j]
		argStr = strings.TrimSpace(st[j+1:])
	} else {
		fields := strings.Fields(st)
		if len(fields) < 2 {
			return gate.Gate{}, fmt.Errorf("malformed gate statement")
		}
		name = fields[0]
		argStr = strings.TrimSpace(st[len(fields[0]):])
	}
	gname := gate.Name(strings.ToLower(name))
	// Common aliases.
	switch gname {
	case "u", "u_3":
		gname = gate.U3
	case "cnot":
		gname = gate.CX
	case "p", "phase":
		gname = gate.U1
	case "cu1", "cphase":
		gname = gate.CP
	case "toffoli":
		gname = gate.CCX
	}
	spec, ok := gate.SpecOf(gname)
	if !ok {
		return gate.Gate{}, fmt.Errorf("unknown gate %q", name)
	}

	var params []float64
	if paramStr != "" {
		for _, p := range refSplitTopLevel(paramStr) {
			v, err := refEvalExpr(p)
			if err != nil {
				return gate.Gate{}, err
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return gate.Gate{}, fmt.Errorf("non-finite angle %q", strings.TrimSpace(p))
			}
			params = append(params, v)
		}
	}
	if len(params) != spec.Params {
		return gate.Gate{}, fmt.Errorf("gate %s wants %d params, got %d", gname, spec.Params, len(params))
	}

	var qubits []int
	for _, a := range refSplitTopLevel(argStr) {
		a = strings.TrimSpace(a)
		lb := strings.Index(a, "[")
		rb := strings.Index(a, "]")
		if lb < 0 || rb < lb {
			return gate.Gate{}, fmt.Errorf("malformed qubit arg %q (whole-register args unsupported)", a)
		}
		if a[rb+1:] != "" {
			*trailing = true // the one line added to the original
		}
		rname := strings.TrimSpace(a[:lb])
		reg, ok := regs[rname]
		if !ok {
			return gate.Gate{}, fmt.Errorf("unknown register %q", rname)
		}
		idx, err := strconv.Atoi(strings.TrimSpace(a[lb+1 : rb]))
		if err != nil {
			return gate.Gate{}, fmt.Errorf("bad qubit index in %q", a)
		}
		if idx < 0 || idx >= reg.size {
			return gate.Gate{}, fmt.Errorf("qubit index %d out of range for %s[%d]", idx, rname, reg.size)
		}
		qubits = append(qubits, reg.base+idx)
	}
	if len(qubits) != spec.Qubits {
		return gate.Gate{}, fmt.Errorf("gate %s wants %d qubits, got %d", gname, spec.Qubits, len(qubits))
	}
	for i, q := range qubits {
		for _, p := range qubits[:i] {
			if p == q {
				return gate.Gate{}, fmt.Errorf("gate %s repeats a qubit argument", gname)
			}
		}
	}
	return gate.New(gname, qubits, params), nil
}

func refMatchParen(s string, open int) int {
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// splitTopLevel splits on commas not nested inside parentheses.
func refSplitTopLevel(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if strings.TrimSpace(s[start:]) != "" {
		out = append(out, s[start:])
	}
	return out
}

// evalExpr evaluates a constant angle expression: numbers, pi, + − * /,
// unary minus, parentheses.
func refEvalExpr(s string) (float64, error) {
	p := &refExprParser{src: strings.TrimSpace(s)}
	v, err := p.parseSum()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return 0, fmt.Errorf("trailing input in expression %q", s)
	}
	return v, nil
}

type refExprParser struct {
	src string
	pos int
}

func (p *refExprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *refExprParser) parseSum() (float64, error) {
	v, err := p.parseProduct()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return v, nil
		}
		switch p.src[p.pos] {
		case '+':
			p.pos++
			w, err := p.parseProduct()
			if err != nil {
				return 0, err
			}
			v += w
		case '-':
			p.pos++
			w, err := p.parseProduct()
			if err != nil {
				return 0, err
			}
			v -= w
		default:
			return v, nil
		}
	}
}

func (p *refExprParser) parseProduct() (float64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return v, nil
		}
		switch p.src[p.pos] {
		case '*':
			p.pos++
			w, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			v *= w
		case '/':
			p.pos++
			w, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			if w == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v /= w
		default:
			return v, nil
		}
	}
}

func (p *refExprParser) parseUnary() (float64, error) {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '-' {
		p.pos++
		v, err := p.parseUnary()
		return -v, err
	}
	if p.pos < len(p.src) && p.src[p.pos] == '+' {
		p.pos++
		return p.parseUnary()
	}
	return p.parseAtom()
}

func (p *refExprParser) parseAtom() (float64, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0, fmt.Errorf("unexpected end of expression")
	}
	if p.src[p.pos] == '(' {
		p.pos++
		v, err := p.parseSum()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return 0, fmt.Errorf("missing closing paren")
		}
		p.pos++
		return v, nil
	}
	if strings.HasPrefix(p.src[p.pos:], "pi") {
		p.pos += 2
		return math.Pi, nil
	}
	start := p.pos
	for p.pos < len(p.src) {
		ch := p.src[p.pos]
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == 'e' || ch == 'E' ||
			((ch == '+' || ch == '-') && p.pos > start && (p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E')) {
			p.pos++
			continue
		}
		break
	}
	if start == p.pos {
		return 0, fmt.Errorf("unexpected character %q in expression", p.src[p.pos])
	}
	return strconv.ParseFloat(p.src[start:p.pos], 64)
}

// refWriteQASM is the fmt-based WriteQASM.
func refWriteQASM(c *circuit.Circuit) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\n")
	b.WriteString("include \"qelib1.inc\";\n")
	if c.NumQubits > 0 {
		// qreg sizes must be positive; a 0-qubit circuit is just the prologue.
		fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	}
	for _, g := range c.Gates {
		b.WriteString(string(g.Name))
		if len(g.Params) > 0 {
			b.WriteByte('(')
			for i, p := range g.Params {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%.17g", p)
			}
			b.WriteByte(')')
		}
		b.WriteByte(' ')
		for i, q := range g.Qubits {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "q[%d]", q)
		}
		b.WriteString(";\n")
	}
	return b.String()
}
