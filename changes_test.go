package aggregathor

import (
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestChangesEntriesStayShort holds every CHANGES.md entry from PR 46 on to
// 2 KB, headline included: the entry runs from its "## PR N · …" heading to
// the next "## " heading. Entries before PR 46 are left to one rewrite of
// the file (ROADMAP item 14(b)).
func TestChangesEntriesStayShort(t *testing.T) {
	const firstCapped, maxBytes = 46, 2 << 10
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := regexp.MustCompile(`(?m)^## (?:PR (\d+) · )?`).FindAllSubmatchIndex(text, -1)
	for i, h := range headings {
		if h[2] < 0 {
			continue // a heading that opens no PR entry
		}
		end := len(text)
		if i+1 < len(headings) {
			end = headings[i+1][0]
		}
		pr, err := strconv.Atoi(string(text[h[2]:h[3]]))
		if err != nil {
			t.Fatal(err)
		}
		if size := end - h[0]; pr >= firstCapped && size > maxBytes {
			t.Errorf("CHANGES.md entry for PR %d is %d bytes, over the %d-byte cap", pr, size, maxBytes)
		}
	}
}
