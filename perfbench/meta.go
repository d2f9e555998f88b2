package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// gitCommit reads the checked-out commit from .git without running git;
// checkouts that are not repositories report "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod (the benchmark's
// own directory and hidden or build directories excluded), so a result
// names the code it measured even in a checkout without git metadata.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			base := d.Name()
			if rel != "." && (strings.HasPrefix(base, ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// splitmix64 is the counter-based generator behind every derived input, so
// a row's value depends only on the seed and its index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// tagBits is how many low mantissa bits of a row's first feature carry the
// request's slot index. The perturbation is below 2^-24 of the value, far
// under any feature's resolution, and lets the traced backend and oracle
// attribute a row to the request that sent it without a side channel.
const tagBits = 28

func tagRow(x float64, slot int) float64 {
	b := math.Float64bits(x)
	return math.Float64frombits(b&^(1<<tagBits-1) | uint64(slot)&(1<<tagBits-1))
}

func rowTag(x float64) int { return int(math.Float64bits(x) & (1<<tagBits - 1)) }
