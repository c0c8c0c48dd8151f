package miniredis

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

func readerFor(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadCommandArray(t *testing.T) {
	r := readerFor("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n")
	args, err := ReadCommand(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SET", "k", "hello"}
	if len(args) != len(want) {
		t.Fatalf("args = %v", args)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Fatalf("args = %v, want %v", args, want)
		}
	}
}

func TestReadCommandInline(t *testing.T) {
	r := readerFor("PING\r\n")
	args, err := ReadCommand(r)
	if err != nil || len(args) != 1 || args[0] != "PING" {
		t.Fatalf("args=%v err=%v", args, err)
	}
	r = readerFor("SET  key   value\n") // extra spaces, bare LF
	args, err = ReadCommand(r)
	if err != nil || len(args) != 3 || args[2] != "value" {
		t.Fatalf("args=%v err=%v", args, err)
	}
}

func TestReadCommandBinarySafeBulk(t *testing.T) {
	r := readerFor("*2\r\n$3\r\nGET\r\n$4\r\na\r\nb\r\n")
	args, err := ReadCommand(r)
	if err != nil {
		t.Fatal(err)
	}
	if args[1] != "a\r\nb" {
		t.Fatalf("bulk with embedded CRLF = %q", args[1])
	}
}

// TestReadCommandBulkLargerThanBuffer: a bulk string longer than the
// reader's buffer is assembled across refills.
func TestReadCommandBulkLargerThanBuffer(t *testing.T) {
	val := strings.Repeat("0123456789", 10)
	r := bufio.NewReaderSize(strings.NewReader("*2\r\n$3\r\nGET\r\n$100\r\n"+val+"\r\nPING\r\n"), 16)
	args, err := ReadCommand(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 2 || args[1] != val {
		t.Fatalf("args = %q", args)
	}
	if args, err := ReadCommand(r); err != nil || len(args) != 1 || args[0] != "PING" {
		t.Fatalf("next command = %q, %v", args, err)
	}
}

func TestReadCommandProtocolErrors(t *testing.T) {
	cases := []string{
		"*2\r\n$3\r\nGET\r\n:5\r\n", // non-bulk element
		"*1\r\n$3\r\nGETxx",         // missing CRLF after bulk
		"*99999\r\n",                // absurd array length
		"*1\r\n$-5\r\n",             // negative bulk length
		"*x\r\n",                    // non-numeric length
	}
	for _, c := range cases {
		if _, err := ReadCommand(readerFor(c)); err == nil {
			t.Errorf("ReadCommand(%q) accepted", c)
		}
	}
}

func TestReadCommandEOF(t *testing.T) {
	if _, err := ReadCommand(readerFor("")); err == nil {
		t.Error("empty input accepted")
	}
}

func TestWriterReplies(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(bufio.NewWriter(&buf))
	if err := w.Simple("OK"); err != nil {
		t.Fatal(err)
	}
	if err := w.Error("bad thing"); err != nil {
		t.Fatal(err)
	}
	if err := w.Int(-7); err != nil {
		t.Fatal(err)
	}
	if err := w.Bulk("hi"); err != nil {
		t.Fatal(err)
	}
	if err := w.Nil(); err != nil {
		t.Fatal(err)
	}
	if err := w.Array([]string{"a", "bc"}); err != nil {
		t.Fatal(err)
	}
	if err := w.ErrorCode("BUSY", "try later"); err != nil {
		t.Fatal(err)
	}
	if err := w.Score(-2.25); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR bad thing\r\n:-7\r\n$2\r\nhi\r\n$-1\r\n*2\r\n$1\r\na\r\n$2\r\nbc\r\n" +
		"-BUSY try later\r\n$5\r\n-2.25\r\n"
	if got := buf.String(); got != want {
		t.Errorf("wire output = %q, want %q", got, want)
	}
}

func TestFormatScore(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1, "1"}, {1.5, "1.5"}, {-3, "-3"}, {0.1, "0.1"},
	}
	for _, c := range cases {
		if got := FormatScore(c.in); got != c.want {
			t.Errorf("FormatScore(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWriteResultPerCommand(t *testing.T) {
	render := func(op StoreOp, res StoreResult) string {
		var buf bytes.Buffer
		w := NewWriter(bufio.NewWriter(&buf))
		if err := WriteResult(w, op, res); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return buf.String()
	}
	if got := render(StoreOp{Cmd: CmdPing}, StoreResult{OK: true}); got != "+PONG\r\n" {
		t.Errorf("PING reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdGet}, StoreResult{}); got != "$-1\r\n" {
		t.Errorf("GET miss reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdZRank}, StoreResult{OK: true, Int: 3}); got != ":3\r\n" {
		t.Errorf("ZRANK reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdZIncrBy}, StoreResult{OK: true, Score: 2.5}); got != "$3\r\n2.5\r\n" {
		t.Errorf("ZINCRBY reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdZAdd}, StoreResult{Err: "boom"}); got != "-ERR boom\r\n" {
		t.Errorf("error reply = %q", got)
	}
	if got := render(StoreOp{Cmd: CmdZRange}, StoreResult{OK: true, Members: []string{"m"}}); got != "*1\r\n$1\r\nm\r\n" {
		t.Errorf("ZRANGE reply = %q", got)
	}
}

// TestRESPAllocsPerCommand pins the allocations of the paper's two commands
// on the serving path: parsing costs the argument slice plus one string per
// argument, and replying costs nothing.
func TestRESPAllocsPerCommand(t *testing.T) {
	cases := []struct {
		name, wire  string
		parseAllocs float64
		res         StoreResult
	}{
		{"ZRANK", "*3\r\n$5\r\nZRANK\r\n$4\r\nzset\r\n$10\r\nmember0042\r\n", 4, StoreResult{OK: true, Int: 42}},
		{"ZINCRBY", "*4\r\n$7\r\nZINCRBY\r\n$4\r\nzset\r\n$1\r\n1\r\n$10\r\nmember0042\r\n", 5, StoreResult{OK: true, Score: 17.5}},
	}
	for _, c := range cases {
		src := strings.NewReader(c.wire)
		r := bufio.NewReader(src)
		var op StoreOp
		parse := testing.AllocsPerRun(100, func() {
			src.Reset(c.wire)
			r.Reset(src)
			args, err := ReadCommand(r)
			if err != nil {
				t.Fatal(err)
			}
			op, _ = ParseCommand(args)
		})
		if parse != c.parseAllocs {
			t.Errorf("%s: ReadCommand+ParseCommand allocs = %v, want %v", c.name, parse, c.parseAllocs)
		}
		w := NewWriter(bufio.NewWriter(io.Discard))
		reply := testing.AllocsPerRun(100, func() {
			if err := WriteResult(w, op, c.res); err != nil {
				t.Fatal(err)
			}
		})
		if reply != 0 {
			t.Errorf("%s: WriteResult allocs = %v, want 0", c.name, reply)
		}
	}
}
