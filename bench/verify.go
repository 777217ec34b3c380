package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"haralick4d/internal/volume"
)

// usoSum identifies the content of one USO output directory independently of
// how the records were spread over files: demand-driven routing gives every
// run another set of record files, so the sum is keyed by output coordinate.
type usoSum struct {
	rois int    // output positions written, per feature
	hash uint64 // commutative sum of mix(feature, position, value bits)
}

const usoMagic = 0x55534f31 // "USO1", internal/filters/output.go

// sumUSODir reads every uso_*.bin record file of dir. The record layout
// (magic, then per record nine int32 of feature and box followed by the box's
// float64 values, x fastest) is the format postprocessing tools consume, so a
// change of it is a change of output the benchmark must notice.
func sumUSODir(dir string, outDims [4]int) (usoSum, error) {
	var sum usoSum
	names, err := filepath.Glob(filepath.Join(dir, "uso_*.bin"))
	if err != nil {
		return sum, err
	}
	if len(names) == 0 {
		return sum, fmt.Errorf("no USO record files under %s", dir)
	}
	perFeature := map[int32]int{}
	for _, name := range names {
		if err := sumUSOFile(name, outDims, &sum, perFeature); err != nil {
			return sum, err
		}
	}
	for ft, n := range perFeature {
		if sum.rois == 0 {
			sum.rois = n
		}
		if n != sum.rois {
			return sum, fmt.Errorf("%s: feature %d has %d values, another has %d", dir, ft, n, sum.rois)
		}
	}
	return sum, nil
}

func sumUSOFile(name string, outDims [4]int, sum *usoSum, perFeature map[int32]int) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil || magic != usoMagic {
		return fmt.Errorf("%s: bad magic %#x (%v)", name, magic, err)
	}
	var hdr [9]int32
	var raw []byte
	for {
		if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		lo, hi := hdr[1:5], hdr[5:9]
		n := 1
		for k := 0; k < 4; k++ {
			if lo[k] < 0 || hi[k] <= lo[k] || int(hi[k]) > outDims[k] {
				return fmt.Errorf("%s: record box %v..%v outside output %v", name, lo, hi, outDims)
			}
			n *= int(hi[k] - lo[k])
		}
		if cap(raw) < 8*n {
			raw = make([]byte, 8*n)
		}
		raw = raw[:8*n]
		if _, err := io.ReadFull(r, raw); err != nil {
			return fmt.Errorf("%s: truncated record: %w", name, err)
		}
		i := 0
		for t := int(lo[3]); t < int(hi[3]); t++ {
			for z := int(lo[2]); z < int(hi[2]); z++ {
				for y := int(lo[1]); y < int(hi[1]); y++ {
					row := uint64(((t*outDims[2]+z)*outDims[1] + y) * outDims[0])
					for x := int(lo[0]); x < int(hi[0]); x++ {
						key := uint64(hdr[0])<<48 ^ (row + uint64(x))
						sum.hash += mix(key, binary.LittleEndian.Uint64(raw[i:]))
						i += 8
					}
				}
			}
		}
		perFeature[hdr[0]] += n
	}
}

// mix is the splitmix64 finalizer over key and value, so equal values at
// different positions, or swapped between two positions, change the sum.
func mix(key, val uint64) uint64 {
	x := key*0x9e3779b97f4a7c15 ^ val
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// outputDims is the number of ROI origins along each axis. The workloads'
// ROIs fit their datasets at both scales, so the error case cannot arise.
func outputDims(dims, roi [4]int) [4]int {
	out, err := volume.OutputDims(dims, roi)
	if err != nil {
		panic(err)
	}
	return out
}

func dimString(d [4]int) string { return fmt.Sprintf("%dx%dx%dx%d", d[0], d[1], d[2], d[3]) }

// stitchedEqual stitches two USO directories into JPEG series with one fixed
// gray range and compares the series byte for byte — the comparison the
// repository's CI makes between a run and the sequential oracle.
func (h *harness) stitchedEqual(a, b string, outDims [4]int, scratch string) error {
	var dirs [2]string
	for i, in := range []string{a, b} {
		dirs[i] = filepath.Join(scratch, fmt.Sprintf("jpeg-%d", i))
		if err := h.procs.run(h.bin("usostitch"), "-in", in, "-out", dirs[i],
			"-dims", dimString(outDims), "-range", "0,1"); err != nil {
			return err
		}
	}
	return dirsEqual(dirs[0], dirs[1])
}

func dirsEqual(a, b string) error {
	list := func(dir string) ([]string, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		return names, nil
	}
	na, err := list(a)
	if err != nil {
		return err
	}
	nb, err := list(b)
	if err != nil {
		return err
	}
	if len(na) == 0 || strings.Join(na, "\n") != strings.Join(nb, "\n") {
		return fmt.Errorf("stitched series differ in file names: %d vs %d files", len(na), len(nb))
	}
	for _, name := range na {
		da, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			return err
		}
		db, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			return err
		}
		if !bytes.Equal(da, db) {
			return fmt.Errorf("stitched %s differs from the oracle's", name)
		}
	}
	return nil
}
