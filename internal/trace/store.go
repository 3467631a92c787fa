package trace

// Store is a content-addressed repository of .cvt traces: files are
// named by the SHA-256 of their bytes, so a digest uniquely identifies
// trace content across processes, replicas and uploads — the property
// the clusterd service's job fingerprints and result cache build on.
// Put verifies the full container (header and per-block CRCs, trailer
// record count) before publishing, so the store never holds a trace
// that would fail replay.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// DigestPrefix tags store digests with their hash algorithm.
const DigestPrefix = "sha256:"

// Store is a directory of content-addressed .cvt traces. It is safe
// for concurrent use: writes go through temp files and a rename, and
// content addressing makes concurrent stores of the same bytes
// idempotent.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a trace store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// ParseDigest validates a digest string ("sha256:<64 hex>") and
// returns the bare hex component.
func ParseDigest(digest string) (string, error) {
	hexPart, ok := strings.CutPrefix(digest, DigestPrefix)
	if !ok {
		return "", fmt.Errorf("trace: digest %q does not start with %q", digest, DigestPrefix)
	}
	if len(hexPart) != sha256.Size*2 {
		return "", fmt.Errorf("trace: digest %q has %d hex digits, want %d", digest, len(hexPart), sha256.Size*2)
	}
	if _, err := hex.DecodeString(hexPart); err != nil {
		return "", fmt.Errorf("trace: digest %q is not hexadecimal", digest)
	}
	return hexPart, nil
}

// Path returns the file a digest resolves to, without checking
// existence; it rejects malformed digests (which also keeps path
// traversal out of the store).
func (s *Store) Path(digest string) (string, error) {
	hexPart, err := ParseDigest(digest)
	if err != nil {
		return "", err
	}
	return filepath.Join(s.dir, "sha256-"+hexPart+".cvt"), nil
}

// Has reports whether the store holds the digest.
func (s *Store) Has(digest string) bool {
	p, err := s.Path(digest)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// Put streams a .cvt container into the store: the bytes are hashed
// while being spooled to a temp file, the temp file is then decoded
// end to end (every CRC checked) to prove it replays, and only a fully
// valid trace is renamed into place. It returns the content digest and
// the record count. Storing bytes already present replaces the stored
// file with the verified copy, which repairs one damaged on disk.
func (s *Store) Put(r io.Reader) (digest string, records uint64, err error) {
	tmp, err := os.CreateTemp(s.dir, ".cvt-upload-*")
	if err != nil {
		return "", 0, err
	}
	defer func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}()
	h := sha256.New()
	if _, err := io.Copy(tmp, io.TeeReader(r, h)); err != nil {
		return "", 0, err
	}
	if err := tmp.Close(); err != nil {
		return "", 0, err
	}
	records, err = VerifyFile(tmp.Name())
	if err != nil {
		return "", 0, err
	}
	digest = DigestPrefix + hex.EncodeToString(h.Sum(nil))
	path, err := s.Path(digest)
	if err != nil {
		return "", 0, err
	}
	// Always replace: the rename is atomic and the content is identical
	// by digest, so re-storing bytes also repairs a damaged stored copy.
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", 0, err
	}
	return digest, records, nil
}

// PutFile is Put over an existing file on disk.
func (s *Store) PutFile(path string) (digest string, records uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return s.Put(f)
}

// Open streams a stored trace for replay.
func (s *Store) Open(digest string) (*FileReader, error) {
	p, err := s.Path(digest)
	if err != nil {
		return nil, err
	}
	return OpenFile(p)
}

// VerifyFile decodes the .cvt file at path end to end — header, every
// block CRC and the record-count trailer — and returns the record
// count. A nil error means the file replays cleanly.
func VerifyFile(path string) (uint64, error) {
	fr, err := OpenFile(path)
	if err != nil {
		return 0, err
	}
	defer fr.Close()
	var d DynInst
	for fr.Next(&d) {
	}
	if err := fr.Err(); err != nil {
		return 0, err
	}
	return fr.Count(), nil
}
