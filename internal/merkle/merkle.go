// Package merkle implements the base-image integrity mechanism the
// paper proposes in section 3.4: "adding a mechanism to check all disk
// blocks loaded from the host OS partition into an AnonVM or CommVM
// against a well-known Merkle tree as they are accessed, and safely
// shut down rather than risk vulnerability if a modified block is
// detected."
//
// The threat: Nymix mounts its host partition strictly read-only, but
// while the USB drive is plugged into some other machine, another OS
// could modify it — and any modification, however minute, would
// manifest identically in every subsequently created VM, making the
// user trackable.
//
// Leaves are per-file digests of a union-file-system layer in sorted
// path order; the tree is a standard binary SHA-256 Merkle tree with
// membership proofs.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"nymix/internal/nymerr"
	"nymix/internal/unionfs"
)

// Hash is a SHA-256 digest.
type Hash [sha256.Size]byte

// leafDigest hashes one file's identity and content. Virtual files
// hash their size and entropy coefficient (their content identity in
// the simulation); real files hash their bytes.
func leafDigest(path string, f unionfs.FileImage) Hash {
	h := sha256.New()
	h.Write([]byte("leaf\x00"))
	h.Write([]byte(path))
	h.Write([]byte{0})
	var meta [17]byte
	binary.BigEndian.PutUint64(meta[0:8], uint64(f.VirtualSize))
	binary.BigEndian.PutUint64(meta[8:16], math.Float64bits(f.Entropy))
	if f.Real {
		meta[16] = 1 // an empty real file differs from a zero-size virtual one
	}
	h.Write(meta[:])
	h.Write(f.Data)
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

func interior(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte("node\x00"))
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// Tree is a Merkle tree over a layer's files.
type Tree struct {
	paths  []string
	levels [][]Hash // levels[0] = leaves, last = [root]
}

// BuildLayer constructs the tree for a layer (typically the sealed
// base image, built once at distribution time).
func BuildLayer(layer *unionfs.Layer) *Tree {
	img := layer.Export()
	paths := make([]string, 0, len(img.Files))
	for p := range img.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	leaves := make([]Hash, len(paths))
	for i, p := range paths {
		leaves[i] = leafDigest(p, img.Files[p])
	}
	return build(paths, leaves)
}

func build(paths []string, leaves []Hash) *Tree {
	if len(leaves) == 0 {
		leaves = []Hash{sha256.Sum256([]byte("empty"))}
	}
	t := &Tree{paths: paths, levels: [][]Hash{leaves}}
	for len(t.levels[len(t.levels)-1]) > 1 {
		prev := t.levels[len(t.levels)-1]
		var next []Hash
		for i := 0; i < len(prev); i += 2 {
			if i+1 < len(prev) {
				next = append(next, interior(prev[i], prev[i+1]))
			} else {
				next = append(next, prev[i]) // odd node promoted
			}
		}
		t.levels = append(t.levels, next)
	}
	return t
}

// BuildHashes constructs a tree over precomputed leaf digests, in
// order. It serves consumers whose leaves are not union-fs files —
// internal/vault uses it to commit to a checkpoint's chunk list, so a
// restore can verify every fetched chunk against the manifest root the
// same way section 3.4 checks disk blocks against a well-known tree.
func BuildHashes(leaves []Hash) *Tree {
	return build(nil, append([]Hash(nil), leaves...))
}

// Root returns the well-known root hash.
func (t *Tree) Root() Hash { return t.levels[len(t.levels)-1][0] }

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return len(t.levels[0]) }

// ProofStep is one audit-path element.
type ProofStep struct {
	Sibling Hash
	// Left is true when the sibling sits to the left of the running
	// hash.
	Left bool
}

// Proof returns the membership proof for the i-th leaf.
func (t *Tree) Proof(i int) ([]ProofStep, error) {
	if i < 0 || i >= len(t.levels[0]) {
		return nil, nymerr.Newf(CodeLeafRange, "leaf %d out of range", i)
	}
	var proof []ProofStep
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		if idx%2 == 0 {
			if idx+1 < len(level) {
				proof = append(proof, ProofStep{Sibling: level[idx+1], Left: false})
			}
			// Odd promoted node contributes no step.
		} else {
			proof = append(proof, ProofStep{Sibling: level[idx-1], Left: true})
		}
		idx /= 2
	}
	return proof, nil
}

// PathIndex returns the leaf index of a file path, or -1.
func (t *Tree) PathIndex(path string) int {
	i := sort.SearchStrings(t.paths, path)
	if i < len(t.paths) && t.paths[i] == path {
		return i
	}
	return -1
}

// VerifyProof checks a leaf digest against a root via its audit path.
func VerifyProof(root Hash, leaf Hash, proof []ProofStep) bool {
	h := leaf
	for _, step := range proof {
		if step.Left {
			h = interior(step.Sibling, h)
		} else {
			h = interior(h, step.Sibling)
		}
	}
	return h == root
}

// VerifyFile checks one file of a layer against the well-known tree —
// the per-access check the paper describes.
func (t *Tree) VerifyFile(layer *unionfs.Layer, path string) error {
	i := t.PathIndex(path)
	if i < 0 {
		return fmt.Errorf("%w: unexpected file %q", ErrTampered, path)
	}
	img := layer.Export()
	f, ok := img.Files[path]
	if !ok {
		return fmt.Errorf("%w: file %q missing", ErrTampered, path)
	}
	proof, err := t.Proof(i)
	if err != nil {
		return err
	}
	if !VerifyProof(t.Root(), leafDigest(path, f), proof) {
		return fmt.Errorf("%w: %q", ErrTampered, path)
	}
	return nil
}

// VerifyLayer recomputes a layer's root and compares it to the
// well-known root — the whole-partition check run before VMs boot.
func VerifyLayer(layer *unionfs.Layer, wellKnown Hash) error {
	if BuildLayer(layer).Root() != wellKnown {
		return ErrTampered
	}
	return nil
}
