#include "syzlang/parser.h"

#include "syzlang/lexer.h"
#include "util/strings.h"

namespace kernelgpt::syzlang {

namespace {

/// Bit width of a syzlang int type name (0 for intptr); false for any
/// other name, so "integer", "int08" or "int99999999999" are rejected.
bool
IntTypeBits(const std::string& name, int* bits)
{
  static const std::pair<const char*, int> kIntTypes[] = {
      {"int8", 8}, {"int16", 16}, {"int32", 32}, {"int64", 64}, {"intptr", 0}};
  for (const auto& [type, width] : kIntTypes) {
    if (name == type) {
      *bits = width;
      return true;
    }
  }
  return false;
}

/// Stateful token-stream parser with one-declaration error recovery.
class Parser {
 public:
  Parser(std::vector<Token> tokens, ParseResult* out)
      : tokens_(std::move(tokens)), out_(out) {}

  void Run() {
    while (!AtEof()) {
      if (Check(TokKind::kNewline)) {
        Advance();
        continue;
      }
      if (!ParseDecl()) SkipToLineEnd();
    }
  }

 private:
  // -- Token plumbing ------------------------------------------------------

  const Token& Peek(int offset = 0) const {
    size_t idx = pos_ + static_cast<size_t>(offset);
    if (idx >= tokens_.size()) idx = tokens_.size() - 1;
    return tokens_[idx];
  }
  bool AtEof() const { return Peek().kind == TokKind::kEof; }
  bool Check(TokKind kind) const { return Peek().kind == kind; }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  bool Expect(TokKind kind, const char* what) {
    if (Check(kind)) {
      Advance();
      return true;
    }
    Error(util::Format("expected %s", what));
    return false;
  }

  void Error(const std::string& message) {
    out_->errors.push_back(
        util::Format("line %d: %s", Peek().line, message.c_str()));
  }

  void SkipToLineEnd() {
    // Skip to the end of the current top-level declaration. Consume brace
    // and bracket blocks so that a bad struct does not desync the parser.
    int depth = 0;
    while (!AtEof()) {
      const Token& t = Advance();
      if (t.kind == TokKind::kLBrace) ++depth;
      if (t.kind == TokKind::kRBrace && depth > 0) --depth;
      if (t.kind == TokKind::kNewline && depth == 0) return;
    }
  }

  // -- Grammar -------------------------------------------------------------

  bool ParseDecl() {
    if (!Check(TokKind::kIdent)) {
      Error("expected declaration");
      return false;
    }
    const std::string head = Peek().text;
    if (head == "resource") return ParseResource();
    if (head == "define") return ParseDefine();

    // Distinguish by the token after the head identifier:
    //   name "="            -> flags
    //   name "{" / name "[" NL  -> struct / union
    //   name "(" or name "$" -> syscall
    //   name "[" type "]" on one line would be ambiguous with union, so
    //   unions require a newline right after '['.
    const Token& next = Peek(1);
    if (next.kind == TokKind::kEquals) return ParseFlags();
    if (next.kind == TokKind::kLBrace) return ParseStruct(/*is_union=*/false);
    if (next.kind == TokKind::kLBrack) return ParseStruct(/*is_union=*/true);
    if (next.kind == TokKind::kLParen || next.kind == TokKind::kDollar) {
      return ParseSyscall();
    }
    Error(util::Format("cannot parse declaration starting with '%s'",
                       head.c_str()));
    return false;
  }

  bool ParseResource() {
    Advance();  // 'resource'
    if (!Check(TokKind::kIdent)) {
      Error("expected resource name");
      return false;
    }
    ResourceDef def;
    def.name = Advance().text;
    if (!Expect(TokKind::kLBrack, "'['")) return false;
    if (!Check(TokKind::kIdent)) {
      Error("expected underlying type of resource");
      return false;
    }
    def.underlying = Advance().text;
    if (!Expect(TokKind::kRBrack, "']'")) return false;
    if (!Expect(TokKind::kNewline, "end of line")) return false;
    out_->spec.Add(std::move(def));
    return true;
  }

  bool ParseDefine() {
    Advance();  // 'define'
    if (!Check(TokKind::kIdent)) {
      Error("expected constant name after define");
      return false;
    }
    DefineDef def;
    def.name = Advance().text;
    if (!Check(TokKind::kNumber)) {
      Error("expected numeric value in define");
      return false;
    }
    def.value = Advance().number;
    if (!Expect(TokKind::kNewline, "end of line")) return false;
    out_->spec.Add(std::move(def));
    return true;
  }

  bool ParseFlags() {
    FlagsDef def;
    def.name = Advance().text;
    Advance();  // '='
    for (;;) {
      if (Check(TokKind::kIdent)) {
        def.values.push_back(Advance().text);
      } else if (Check(TokKind::kNumber)) {
        def.values.push_back(Advance().text);
      } else {
        Error("expected flag value");
        return false;
      }
      if (Check(TokKind::kComma)) {
        Advance();
        continue;
      }
      break;
    }
    if (!Expect(TokKind::kNewline, "end of line")) return false;
    out_->spec.Add(std::move(def));
    return true;
  }

  bool ParseStruct(bool is_union) {
    StructDef def;
    def.is_union = is_union;
    def.name = Advance().text;
    Advance();  // '{' or '['
    if (!Expect(TokKind::kNewline, "newline after struct opener")) {
      return false;
    }
    const TokKind closer = is_union ? TokKind::kRBrack : TokKind::kRBrace;
    while (!Check(closer)) {
      if (AtEof()) {
        Error(util::Format("unterminated %s '%s'",
                           is_union ? "union" : "struct", def.name.c_str()));
        return false;
      }
      if (Check(TokKind::kNewline)) {
        Advance();
        continue;
      }
      Field field;
      if (!ParseField(&field)) return false;
      def.fields.push_back(std::move(field));
      if (!Expect(TokKind::kNewline, "end of field line")) return false;
    }
    Advance();  // closer
    if (!Expect(TokKind::kNewline, "end of line")) return false;
    out_->spec.Add(std::move(def));
    return true;
  }

  bool ParseSyscall() {
    SyscallDef def;
    def.name = Advance().text;
    if (Check(TokKind::kDollar)) {
      Advance();
      if (!Check(TokKind::kIdent) && !Check(TokKind::kNumber)) {
        Error("expected syscall variant after '$'");
        return false;
      }
      def.variant = Advance().text;
    }
    if (!Expect(TokKind::kLParen, "'('")) return false;
    if (!Check(TokKind::kRParen)) {
      for (;;) {
        Field field;
        if (!ParseField(&field)) return false;
        def.params.push_back(std::move(field));
        if (Check(TokKind::kComma)) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (!Expect(TokKind::kRParen, "')'")) return false;
    if (Check(TokKind::kIdent)) def.returns_resource = Advance().text;
    if (!Expect(TokKind::kNewline, "end of line")) return false;
    out_->spec.Add(std::move(def));
    return true;
  }

  bool ParseField(Field* out) {
    if (!Check(TokKind::kIdent)) {
      Error("expected field name");
      return false;
    }
    out->name = Advance().text;
    if (!ParseType(&out->type)) return false;
    // Optional "(out)" attribute.
    if (Check(TokKind::kLParen) && Peek(1).kind == TokKind::kIdent &&
        Peek(1).text == "out" && Peek(2).kind == TokKind::kRParen) {
      Advance();
      Advance();
      Advance();
      out->is_out = true;
    }
    return true;
  }

  bool ParseType(Type* out) {
    if (!Check(TokKind::kIdent)) {
      Error("expected type");
      return false;
    }
    const std::string name = Advance().text;

    int bits = 0;
    if (IntTypeBits(name, &bits)) {
      *out = Type::Int(bits);
      // Optional [lo:hi] range.
      if (Check(TokKind::kLBrack)) {
        Advance();
        int64_t lo = 0;
        int64_t hi = 0;
        if (!ParseSignedNumber(&lo)) return false;
        if (!Expect(TokKind::kColon, "':' in range")) return false;
        if (!ParseSignedNumber(&hi)) return false;
        if (!Expect(TokKind::kRBrack, "']'")) return false;
        *out = Type::IntRange(bits, lo, hi);
      }
      return true;
    }
    if (name == "const") return ParseConst(out);
    if (name == "flags") return ParseFlagsType(out);
    if (name == "ptr") return ParsePtr(out);
    if (name == "array") return ParseArray(out);
    if (name == "string") return ParseString(out);
    if (name == "len" || name == "bytesize") return ParseLen(name, out);
    if (name == "filename") {
      *out = Type::Filename();
      return true;
    }
    if (name == "void") {
      *out = Type::Void();
      return true;
    }
    if (name == "fd") {
      *out = Type::Resource("fd");
      return true;
    }
    // Named reference: resolved to resource or struct by the validator.
    // We encode it as a StructRef; the validator rewrites/classifies.
    *out = Type::StructRef(name);
    return true;
  }

  bool ParseSignedNumber(int64_t* out) {
    // Accept NUM or -NUM is not in the lexer; ranges in our corpus are
    // non-negative, so only plain numbers are accepted.
    if (!Check(TokKind::kNumber)) {
      Error("expected number");
      return false;
    }
    *out = static_cast<int64_t>(Advance().number);
    return true;
  }

  /// Optional trailing int-size argument inside a bracket list, e.g.
  /// const[X, int32]. Defaults to 32 bits when absent.
  bool ParseOptionalIntSize(int* bits) {
    *bits = 32;
    if (!Check(TokKind::kComma)) return true;
    Advance();
    if (!Check(TokKind::kIdent)) {
      Error("expected int type");
      return false;
    }
    const std::string t = Advance().text;
    if (!IntTypeBits(t, bits)) {
      Error(util::Format("expected int type, got '%s'", t.c_str()));
      return false;
    }
    return true;
  }

  bool ParseConst(Type* out) {
    if (!Expect(TokKind::kLBrack, "'[' after const")) return false;
    std::string value;
    if (Check(TokKind::kIdent) || Check(TokKind::kNumber)) {
      value = Advance().text;
    } else {
      Error("expected const value");
      return false;
    }
    int bits = 32;
    if (!ParseOptionalIntSize(&bits)) return false;
    if (!Expect(TokKind::kRBrack, "']'")) return false;
    *out = Type::Const(value, bits);
    return true;
  }

  bool ParseFlagsType(Type* out) {
    if (!Expect(TokKind::kLBrack, "'[' after flags")) return false;
    if (!Check(TokKind::kIdent)) {
      Error("expected flags set name");
      return false;
    }
    std::string set = Advance().text;
    int bits = 32;
    if (!ParseOptionalIntSize(&bits)) return false;
    if (!Expect(TokKind::kRBrack, "']'")) return false;
    *out = Type::Flags(set, bits);
    return true;
  }

  bool ParsePtr(Type* out) {
    if (!Expect(TokKind::kLBrack, "'[' after ptr")) return false;
    if (!Check(TokKind::kIdent)) {
      Error("expected pointer direction");
      return false;
    }
    const std::string dir_name = Advance().text;
    Dir dir;
    if (dir_name == "in") {
      dir = Dir::kIn;
    } else if (dir_name == "out") {
      dir = Dir::kOut;
    } else if (dir_name == "inout") {
      dir = Dir::kInOut;
    } else {
      Error(util::Format("bad pointer direction '%s'", dir_name.c_str()));
      return false;
    }
    if (!Expect(TokKind::kComma, "','")) return false;
    Type elem;
    if (!ParseType(&elem)) return false;
    if (!Expect(TokKind::kRBrack, "']'")) return false;
    *out = Type::Ptr(dir, std::move(elem));
    return true;
  }

  bool ParseArray(Type* out) {
    if (!Expect(TokKind::kLBrack, "'[' after array")) return false;
    Type elem;
    if (!ParseType(&elem)) return false;
    uint64_t fixed = 0;
    if (Check(TokKind::kComma)) {
      Advance();
      if (!Check(TokKind::kNumber)) {
        Error("expected array length");
        return false;
      }
      fixed = Advance().number;
    }
    if (!Expect(TokKind::kRBrack, "']'")) return false;
    *out = Type::Array(std::move(elem), fixed);
    return true;
  }

  bool ParseString(Type* out) {
    if (!Check(TokKind::kLBrack)) {
      *out = Type::String();
      return true;
    }
    Advance();
    if (!Check(TokKind::kString)) {
      Error("expected string literal");
      return false;
    }
    std::string lit = Advance().text;
    if (!Expect(TokKind::kRBrack, "']'")) return false;
    *out = Type::String(std::move(lit));
    return true;
  }

  bool ParseLen(const std::string& keyword, Type* out) {
    if (!Expect(TokKind::kLBrack, "'[' after len")) return false;
    if (!Check(TokKind::kIdent)) {
      Error("expected len target field");
      return false;
    }
    std::string target = Advance().text;
    int bits = 32;
    if (!ParseOptionalIntSize(&bits)) return false;
    if (!Expect(TokKind::kRBrack, "']'")) return false;
    *out = keyword == "len" ? Type::Len(std::move(target), bits)
                            : Type::Bytesize(std::move(target), bits);
    return true;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  ParseResult* out_;
};

}  // namespace

ParseResult
Parse(const std::string& source, const std::string& origin)
{
  ParseResult result;
  result.spec.origin = origin;
  LexResult lexed = Lex(source);
  result.errors = lexed.errors;
  Parser parser(std::move(lexed.tokens), &result);
  parser.Run();
  return result;
}

}  // namespace kernelgpt::syzlang
