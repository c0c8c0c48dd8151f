// Package miniredis is a small in-memory storage server in the style of
// Redis, built for the paper's macro-benchmark (§8.3): sorted sets backed by
// a hash table plus a skip list, updated atomically per request, behind a
// pool of executor handles and a RESP wire protocol. The entire keyspace is
// a single sequential structure (ds.HashMap of values) made concurrent
// through NR or any of the baseline methods — the "coupled data structures"
// case of §6 that lock-free algorithms cannot compose.
package miniredis

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// RESP value type markers.
const (
	respSimple = '+'
	respError  = '-'
	respInt    = ':'
	respBulk   = '$'
	respArray  = '*'
)

// ErrProtocol reports malformed RESP input.
var ErrProtocol = errors.New("miniredis: protocol error")

// ReadCommand parses one client command: an array of bulk strings, or an
// inline command line (space-separated), as Redis accepts both.
func ReadCommand(r *bufio.Reader) ([]string, error) {
	first, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if first != respArray {
		// Inline command.
		if err := r.UnreadByte(); err != nil {
			return nil, err
		}
		lineBytes, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		return splitInline(trimCRLF(lineBytes)), nil
	}
	n, err := readInt(r)
	if err != nil {
		return nil, err
	}
	if n < 0 || n > 1024 {
		return nil, fmt.Errorf("%w: array length %d", ErrProtocol, n)
	}
	args := make([]string, 0, n)
	for i := int64(0); i < n; i++ {
		marker, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if marker != respBulk {
			return nil, fmt.Errorf("%w: expected bulk string, got %q", ErrProtocol, marker)
		}
		ln, err := readInt(r)
		if err != nil {
			return nil, err
		}
		if ln < 0 || ln > 64<<20 {
			return nil, fmt.Errorf("%w: bulk length %d", ErrProtocol, ln)
		}
		arg, err := readBulk(r, int(ln))
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
	}
	return args, nil
}

func trimCRLF(s string) string {
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

func splitInline(s string) []string {
	var out []string
	field := ""
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			if field != "" {
				out = append(out, field)
				field = ""
			}
			continue
		}
		field += string(s[i])
	}
	if field != "" {
		out = append(out, field)
	}
	return out
}

// readBulk reads a bulk string's n bytes and its CRLF terminator, copying
// the bytes once, straight from the reader's buffer into the string.
func readBulk(r *bufio.Reader, n int) (string, error) {
	var b strings.Builder
	b.Grow(n)
	for b.Len() < n {
		chunk, err := r.Peek(min(n-b.Len(), r.Size()))
		if err != nil {
			return "", err
		}
		b.Write(chunk)
		_, _ = r.Discard(len(chunk)) // Peek just buffered them
	}
	crlf, err := r.Peek(2)
	if err != nil {
		return "", err
	}
	if crlf[0] != '\r' || crlf[1] != '\n' {
		return "", fmt.Errorf("%w: bulk string missing CRLF", ErrProtocol)
	}
	_, _ = r.Discard(2)
	return b.String(), nil
}

// readInt parses a CRLF-terminated integer line in place in the reader's
// buffer.
func readInt(r *bufio.Reader) (int64, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(bytes.TrimRight(line, "\r\n")), 10, 64)
}

// Writer emits RESP replies.
type Writer struct {
	w   *bufio.Writer
	num []byte // scratch for formatting scores, reused across replies
}

// NewWriter wraps w.
func NewWriter(w *bufio.Writer) *Writer { return &Writer{w: w} }

// Flush flushes buffered replies.
func (w *Writer) Flush() error { return w.w.Flush() }

// Simple writes a simple-string reply (+OK).
func (w *Writer) Simple(s string) error {
	_ = w.w.WriteByte(respSimple)
	return w.text(s)
}

// Error writes a generic error reply (-ERR msg).
func (w *Writer) Error(msg string) error { return w.ErrorCode("ERR", msg) }

// ErrorCode writes an error reply with its own code word (-BUSY msg).
func (w *Writer) ErrorCode(code, msg string) error {
	_ = w.w.WriteByte(respError)
	_, _ = w.w.WriteString(code)
	_ = w.w.WriteByte(' ')
	return w.text(msg)
}

// Int writes an integer reply.
func (w *Writer) Int(v int64) error { return w.header(respInt, v) }

// Bulk writes a bulk-string reply.
func (w *Writer) Bulk(s string) error {
	_ = w.header(respBulk, int64(len(s)))
	return w.text(s)
}

// Score writes a sorted-set score as a bulk string, formatted as by
// FormatScore.
func (w *Writer) Score(f float64) error {
	w.num = strconv.AppendFloat(w.num[:0], f, 'g', -1, 64)
	_ = w.header(respBulk, int64(len(w.num)))
	_, _ = w.w.Write(w.num)
	_, err := w.w.WriteString("\r\n")
	return err
}

// Nil writes a null bulk reply.
func (w *Writer) Nil() error {
	_, err := w.w.WriteString("$-1\r\n")
	return err
}

// Array writes an array of bulk strings.
func (w *Writer) Array(items []string) error {
	err := w.header(respArray, int64(len(items)))
	for _, it := range items {
		err = w.Bulk(it)
	}
	return err
}

// text writes s and CRLF. bufio.Writer errors are sticky, so the last write
// reports any failure of the reply's earlier writes too.
func (w *Writer) text(s string) error {
	_, _ = w.w.WriteString(s)
	_, err := w.w.WriteString("\r\n")
	return err
}

// header writes a type marker, a decimal integer and CRLF, formatted in the
// writer's free buffer space.
func (w *Writer) header(marker byte, v int64) error {
	b := append(w.w.AvailableBuffer(), marker)
	b = strconv.AppendInt(b, v, 10)
	b = append(b, '\r', '\n')
	_, err := w.w.Write(b)
	return err
}

// FormatScore renders a float the way Redis does (%.17g trimmed).
func FormatScore(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	return s
}
