//! `#[derive(Serialize, Deserialize)]` for the offline `serde` stand-in.
//!
//! Hand-rolled over `proc_macro` token trees: non-generic structs (named,
//! tuple, unit) and enums (unit, newtype, tuple, struct variants; externally
//! tagged), with the attribute subset the workspace uses. Field *types* are
//! never inspected — the expansion leans on inference — so only names,
//! arities and `#[serde(..)]` arguments are parsed.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    /// `Some(None)` = `default`, `Some(Some(path))` = `default = "path"`.
    default: Option<Option<String>>,
    skip: bool,
    skip_serializing_if: Option<String>,
    deny_unknown_fields: bool,
}

struct Field {
    name: String,
    attrs: Attrs,
}

enum Body {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    body: Body,
}

enum Item {
    Struct(Body),
    Enum(Vec<Variant>),
}

struct Parsed {
    name: String,
    attrs: Attrs,
    item: Item,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

/// Consume leading `#[..]` attributes, folding `#[serde(..)]` arguments.
fn parse_attrs(it: &mut Tokens) -> Attrs {
    let mut attrs = Attrs::default();
    while is_punct(it.peek(), '#') {
        it.next();
        let Some(TokenTree::Group(g)) = it.next() else {
            panic!("serde stub: malformed attribute");
        };
        let mut inner = g.stream().into_iter();
        match (inner.next(), inner.next()) {
            (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args)))
                if id.to_string() == "serde" =>
            {
                parse_serde_args(args.stream(), &mut attrs)
            }
            _ => {}
        }
    }
    attrs
}

fn parse_serde_args(args: TokenStream, attrs: &mut Attrs) {
    let mut it = args.into_iter().peekable();
    while let Some(tok) = it.next() {
        let TokenTree::Ident(key) = tok else { continue };
        let value = if is_punct(it.peek(), '=') {
            it.next();
            match it.next() {
                Some(TokenTree::Literal(l)) => Some(l.to_string().trim_matches('"').to_string()),
                other => panic!("serde stub: expected string literal, got {other:?}"),
            }
        } else {
            None
        };
        match (key.to_string().as_str(), value) {
            ("default", v) => attrs.default = Some(v),
            ("skip", None) => attrs.skip = true,
            ("skip_serializing_if", Some(p)) => attrs.skip_serializing_if = Some(p),
            ("deny_unknown_fields", None) => attrs.deny_unknown_fields = true,
            (other, _) => panic!("serde stub: unsupported attribute `{other}`"),
        }
    }
}

fn skip_visibility(it: &mut Tokens) {
    if matches!(it.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Skip one type (or discriminant expression) up to a top-level `,`.
/// Returns whether anything was consumed.
fn skip_to_comma(it: &mut Tokens) -> bool {
    let mut depth = 0i32;
    let mut any = false;
    while let Some(tok) = it.peek() {
        match tok {
            TokenTree::Punct(p) if p.as_char() == ',' && depth <= 0 => break,
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            _ => {}
        }
        any = true;
        it.next();
    }
    it.next(); // the comma, if any
    any
}

fn parse_named(stream: TokenStream) -> Vec<Field> {
    let mut it = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = parse_attrs(&mut it);
        skip_visibility(&mut it);
        let Some(TokenTree::Ident(name)) = it.next() else {
            break;
        };
        assert!(
            is_punct(it.next().as_ref(), ':'),
            "serde stub: expected `:`"
        );
        skip_to_comma(&mut it);
        fields.push(Field {
            name: name.to_string(),
            attrs,
        });
    }
    fields
}

fn count_tuple(stream: TokenStream) -> usize {
    let mut it = stream.into_iter().peekable();
    let mut n = 0;
    loop {
        parse_attrs(&mut it);
        skip_visibility(&mut it);
        if !skip_to_comma(&mut it) {
            break;
        }
        n += 1;
    }
    n
}

fn parse_body(it: &mut Tokens) -> Body {
    match it.peek() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let b = Body::Named(parse_named(g.stream()));
            it.next();
            b
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let b = Body::Tuple(count_tuple(g.stream()));
            it.next();
            b
        }
        _ => Body::Unit,
    }
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut it = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        parse_attrs(&mut it);
        let Some(TokenTree::Ident(name)) = it.next() else {
            break;
        };
        let body = parse_body(&mut it);
        skip_to_comma(&mut it); // optional `= discriminant`, then `,`
        variants.push(Variant {
            name: name.to_string(),
            body,
        });
    }
    variants
}

fn parse(input: TokenStream) -> Parsed {
    let mut it = input.into_iter().peekable();
    let attrs = parse_attrs(&mut it);
    skip_visibility(&mut it);
    let Some(TokenTree::Ident(kw)) = it.next() else {
        panic!("serde stub: expected `struct` or `enum`");
    };
    let Some(TokenTree::Ident(name)) = it.next() else {
        panic!("serde stub: expected a type name");
    };
    assert!(
        !is_punct(it.peek(), '<'),
        "serde stub: generic types are not supported"
    );
    let item = match kw.to_string().as_str() {
        "struct" => Item::Struct(parse_body(&mut it)),
        "enum" => match it.next() {
            Some(TokenTree::Group(g)) => Item::Enum(parse_variants(g.stream())),
            _ => panic!("serde stub: expected enum body"),
        },
        other => panic!("serde stub: cannot derive for `{other}`"),
    };
    Parsed {
        name: name.to_string(),
        attrs,
        item,
    }
}

// ---- Serialize --------------------------------------------------------------

/// Statements pushing every serialized field of a named body onto `m`;
/// `access(name)` is the expression borrowing that field.
fn ser_named(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::from("let mut m: Vec<(String, ::serde::Value)> = Vec::new();");
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let a = access(&f.name);
        let push = format!(
            "m.push((\"{n}\".to_string(), ::serde::Serialize::to_value({a})));",
            n = f.name
        );
        match &f.attrs.skip_serializing_if {
            Some(pred) => out += &format!("if !{pred}({a}) {{ {push} }}"),
            None => out += &push,
        }
    }
    out
}

fn binders(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("f{i}")).collect()
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let p = parse(input);
    let name = &p.name;
    let body = match &p.item {
        Item::Struct(Body::Named(fields)) => format!(
            "{} ::serde::Value::Map(m)",
            ser_named(fields, |f| format!("&self.{f}"))
        ),
        Item::Struct(Body::Tuple(1)) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Item::Struct(Body::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
        }
        Item::Struct(Body::Unit) => "::serde::Value::Null".to_string(),
        Item::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let tagged = |payload: &str| {
                    format!("::serde::Value::Map(vec![(\"{vn}\".to_string(), {payload})])")
                };
                arms += &match &v.body {
                    Body::Unit => {
                        format!("{name}::{vn} => ::serde::Value::Str(\"{vn}\".to_string()),")
                    }
                    Body::Tuple(1) => format!(
                        "{name}::{vn}(f0) => {},",
                        tagged("::serde::Serialize::to_value(f0)")
                    ),
                    Body::Tuple(n) => {
                        let b = binders(*n);
                        let items: Vec<String> = b
                            .iter()
                            .map(|f| format!("::serde::Serialize::to_value({f})"))
                            .collect();
                        format!(
                            "{name}::{vn}({}) => {},",
                            b.join(", "),
                            tagged(&format!("::serde::Value::Seq(vec![{}])", items.join(", ")))
                        )
                    }
                    Body::Named(fields) => {
                        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!(
                            "{name}::{vn} {{ {} }} => {{ {} {} }},",
                            names.join(", "),
                            ser_named(fields, |f| f.to_string()),
                            tagged("::serde::Value::Map(m)")
                        )
                    }
                };
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{
            #[allow(unused_variables)]
            fn to_value(&self) -> ::serde::Value {{ {body} }}
        }}"
    )
    .parse()
    .expect("serde stub: generated Serialize impl parses")
}

// ---- Deserialize ------------------------------------------------------------

/// `field: expr, ..` initialisers reading a named body out of map `m`.
fn de_named(fields: &[Field]) -> String {
    let mut out = String::new();
    for f in fields {
        let n = &f.name;
        let expr = match (&f.attrs.default, f.attrs.skip) {
            (Some(Some(path)), true) => format!("{path}()"),
            (_, true) => "::core::default::Default::default()".to_string(),
            (Some(Some(path)), false) => {
                format!("::serde::__private::field_or(m, \"{n}\", {path})?")
            }
            (Some(None), false) => format!(
                "::serde::__private::field_or(m, \"{n}\", ::core::default::Default::default)?"
            ),
            (None, false) => format!("::serde::__private::field(m, \"{n}\")?"),
        };
        out += &format!("{n}: {expr}, ");
    }
    out
}

fn deny_unknown(fields: &[Field], deny: bool, ty: &str) -> String {
    if !deny {
        return String::new();
    }
    let known: Vec<String> = fields
        .iter()
        .filter(|f| !f.attrs.skip)
        .map(|f| format!("\"{}\"", f.name))
        .collect();
    format!(
        "::serde::__private::deny_unknown(m, &[{}], \"{ty}\")?;",
        known.join(", ")
    )
}

fn de_seq(n: usize) -> String {
    (0..n)
        .map(|i| format!("::serde::Deserialize::from_value(&s[{i}])?"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let p = parse(input);
    let name = &p.name;
    let body = match &p.item {
        Item::Struct(Body::Named(fields)) => format!(
            "let m = ::serde::__private::as_map(v, \"{name}\")?; {} Ok({name} {{ {} }})",
            deny_unknown(fields, p.attrs.deny_unknown_fields, name),
            de_named(fields)
        ),
        Item::Struct(Body::Tuple(1)) => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Item::Struct(Body::Tuple(n)) => format!(
            "let s = ::serde::__private::as_seq(v, {n}, \"{name}\")?; Ok({name}({}))",
            de_seq(*n)
        ),
        Item::Struct(Body::Unit) => format!("Ok({name})"),
        Item::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                let payload = format!("::serde::__private::payload(payload, \"{vn}\")?");
                arms += &match &v.body {
                    Body::Unit => format!("\"{vn}\" => Ok({name}::{vn}),"),
                    Body::Tuple(1) => format!(
                        "\"{vn}\" => Ok({name}::{vn}(::serde::Deserialize::from_value({payload})?)),"
                    ),
                    Body::Tuple(n) => format!(
                        "\"{vn}\" => {{
                            let s = ::serde::__private::as_seq({payload}, {n}, \"{vn}\")?;
                            Ok({name}::{vn}({}))
                        }}",
                        de_seq(*n)
                    ),
                    Body::Named(fields) => format!(
                        "\"{vn}\" => {{
                            let m = ::serde::__private::as_map({payload}, \"{vn}\")?;
                            Ok({name}::{vn} {{ {} }})
                        }}",
                        de_named(fields)
                    ),
                };
            }
            format!(
                "let (tag, payload) = ::serde::__private::variant(v, \"{name}\")?;
                match tag {{
                    {arms}
                    other => Err(::serde::__private::unknown_variant(other, \"{name}\")),
                }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{
            #[allow(unused_variables)]
            fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::Error> {{
                {body}
            }}
        }}"
    )
    .parse()
    .expect("serde stub: generated Deserialize impl parses")
}
