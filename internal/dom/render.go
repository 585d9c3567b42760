package dom

import (
	"strings"

	"cookiewalk/internal/htmlx"
)

// Render serializes n's subtree back to HTML. Declarative shadow roots
// are emitted as <template shadowrootmode=...> so a render/parse round
// trip preserves shadow structure. iframe content documents are NOT
// inlined (they are separate resources).
func Render(n *Node) string {
	var b strings.Builder
	renderNode(&b, n)
	return b.String()
}

func renderNode(b *strings.Builder, n *Node) {
	switch n.Type {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			renderNode(b, c)
		}
	case DoctypeNode:
		b.WriteString("<!DOCTYPE ")
		b.WriteString(n.Data)
		b.WriteString(">")
	case CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case TextNode:
		if n.Parent != nil && n.Parent.Type == ElementNode && htmlx.IsRawText(n.Parent.Tag) {
			b.WriteString(n.Data)
		} else {
			b.WriteString(htmlx.EscapeText(n.Data))
		}
	case ElementNode:
		b.WriteByte('<')
		b.WriteString(n.Tag)
		for _, a := range n.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			if a.Val != "" {
				b.WriteString(`="`)
				b.WriteString(htmlx.EscapeAttr(a.Val))
				b.WriteByte('"')
			}
		}
		if htmlx.IsVoid(n.Tag) {
			b.WriteString(">")
			return
		}
		b.WriteByte('>')
		if n.Shadow != nil {
			b.WriteString(`<template shadowrootmode="`)
			b.WriteString(string(n.Shadow.Mode))
			b.WriteString(`">`)
			for c := n.Shadow.Root.FirstChild; c != nil; c = c.NextSibling {
				renderNode(b, c)
			}
			b.WriteString("</template>")
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			renderNode(b, c)
		}
		b.WriteString("</")
		b.WriteString(n.Tag)
		b.WriteByte('>')
	}
}
