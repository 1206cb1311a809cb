#include "strform/parser.h"

#include <algorithm>
#include <vector>

namespace strdb {

namespace {

// --- window formulae -------------------------------------------------------

Result<WindowFormula> ParseWinOr(TokenStream* ts);

Result<WindowFormula> ParseWinPrimary(TokenStream* ts) {
  if (ts->Eat(TokenKind::kBang)) {
    STRDB_ASSIGN_OR_RETURN(WindowFormula inner, ParseWinPrimary(ts));
    return WindowFormula::Not(std::move(inner));
  }
  if (ts->Eat(TokenKind::kLParen)) {
    STRDB_ASSIGN_OR_RETURN(WindowFormula inner, ParseWinOr(ts));
    STRDB_RETURN_IF_ERROR(ts->Expect(TokenKind::kRParen, "')'"));
    return inner;
  }
  if (ts->Peek().kind != TokenKind::kIdent) {
    return ts->ErrorHere("expected window-formula atom");
  }
  if (ts->Peek().text == "true") {
    ts->Next();
    return WindowFormula::True();
  }
  std::string var = ts->Next().text;
  bool negated = false;
  if (ts->Eat(TokenKind::kNeq)) {
    negated = true;
  } else {
    STRDB_RETURN_IF_ERROR(ts->Expect(TokenKind::kEq, "'=' or '!='"));
  }
  WindowFormula atom = WindowFormula::True();
  // Chained equality sugar x1 = x2 = ... = xm (not after '!=').
  if (ts->Peek().kind == TokenKind::kTilde) {
    ts->Next();
    atom = WindowFormula::Undef(var);
  } else if (ts->Peek().kind == TokenKind::kChar) {
    atom = WindowFormula::CharEq(var, ts->Next().text[0]);
  } else if (ts->Peek().kind == TokenKind::kIdent &&
             ts->Peek().text != "true") {
    std::string prev = var;
    atom = WindowFormula::True();
    bool first = true;
    for (;;) {
      std::string rhs;
      if (ts->Peek().kind == TokenKind::kIdent) {
        rhs = ts->Next().text;
        WindowFormula eq = WindowFormula::VarEq(prev, rhs);
        atom = first ? eq : WindowFormula::And(std::move(atom), std::move(eq));
        prev = rhs;
      } else if (ts->Peek().kind == TokenKind::kTilde) {
        ts->Next();
        WindowFormula eq = WindowFormula::Undef(prev);
        atom = first ? eq : WindowFormula::And(std::move(atom), std::move(eq));
        // ~ terminates a chain (x = y = ~ means x=y and y=ε).
        break;
      } else {
        return ts->ErrorHere("expected variable or '~' in equality chain");
      }
      first = false;
      if (negated || !ts->Eat(TokenKind::kEq)) break;
    }
  } else {
    return ts->ErrorHere("expected '~', character literal or variable");
  }
  if (negated) return WindowFormula::Not(std::move(atom));
  return atom;
}

Result<WindowFormula> ParseWinAnd(TokenStream* ts) {
  STRDB_ASSIGN_OR_RETURN(WindowFormula out, ParseWinPrimary(ts));
  while (ts->Eat(TokenKind::kAmp)) {
    STRDB_ASSIGN_OR_RETURN(WindowFormula rhs, ParseWinPrimary(ts));
    out = WindowFormula::And(std::move(out), std::move(rhs));
  }
  return out;
}

Result<WindowFormula> ParseWinOr(TokenStream* ts) {
  STRDB_ASSIGN_OR_RETURN(WindowFormula out, ParseWinAnd(ts));
  while (ts->Eat(TokenKind::kPipe)) {
    STRDB_ASSIGN_OR_RETURN(WindowFormula rhs, ParseWinAnd(ts));
    out = WindowFormula::Or(std::move(out), std::move(rhs));
  }
  return out;
}

// --- string formulae -------------------------------------------------------

Result<StringFormula> ParseUnion(TokenStream* ts);

Result<StringFormula> ParseBase(TokenStream* ts) {
  if (ts->EatKeyword("lambda")) return StringFormula::Lambda();
  if (ts->Eat(TokenKind::kLParen)) {
    STRDB_ASSIGN_OR_RETURN(StringFormula inner, ParseUnion(ts));
    STRDB_RETURN_IF_ERROR(ts->Expect(TokenKind::kRParen, "')'"));
    return inner;
  }
  if (ts->Eat(TokenKind::kLBracket)) {
    std::vector<std::string> vars;
    if (!ts->Eat(TokenKind::kRBracket)) {
      for (;;) {
        if (ts->Peek().kind != TokenKind::kIdent) {
          return ts->ErrorHere("expected variable in transpose");
        }
        // Each variable names one tape; a repeat would give one string
        // two heads, which the window semantics and the Thm 3.1 machine
        // read differently.
        if (std::find(vars.begin(), vars.end(), ts->Peek().text) !=
            vars.end()) {
          return ts->ErrorHere("variable '" + ts->Peek().text +
                               "' appears twice in transpose");
        }
        vars.push_back(ts->Next().text);
        if (!ts->Eat(TokenKind::kComma)) break;
      }
      STRDB_RETURN_IF_ERROR(ts->Expect(TokenKind::kRBracket, "']'"));
    }
    Dir dir;
    if (ts->EatKeyword("l")) {
      dir = Dir::kLeft;
    } else if (ts->EatKeyword("r")) {
      dir = Dir::kRight;
    } else {
      return ts->ErrorHere("expected transpose direction 'l' or 'r'");
    }
    STRDB_RETURN_IF_ERROR(ts->Expect(TokenKind::kLParen, "'('"));
    STRDB_ASSIGN_OR_RETURN(WindowFormula window, ParseWinOr(ts));
    STRDB_RETURN_IF_ERROR(ts->Expect(TokenKind::kRParen, "')'"));
    return StringFormula::Atomic(dir, std::move(vars), std::move(window));
  }
  return ts->ErrorHere("expected '[', '(' or 'lambda'");
}

Result<StringFormula> ParsePostfixAfter(StringFormula out, TokenStream* ts) {
  for (;;) {
    if (ts->Eat(TokenKind::kStar)) {
      out = StringFormula::Star(std::move(out));
    } else if (ts->Eat(TokenKind::kCaret)) {
      if (ts->Peek().kind != TokenKind::kInt) {
        return ts->ErrorHere("expected exponent after '^'");
      }
      int n = ts->Next().value;
      out = StringFormula::Power(std::move(out), n);
    } else {
      break;
    }
  }
  return out;
}

Result<StringFormula> ParsePostfix(TokenStream* ts) {
  STRDB_ASSIGN_OR_RETURN(StringFormula out, ParseBase(ts));
  return ParsePostfixAfter(std::move(out), ts);
}

bool StartsBase(const Token& t) {
  return t.kind == TokenKind::kLBracket || t.kind == TokenKind::kLParen ||
         (t.kind == TokenKind::kIdent && t.text == "lambda");
}

Result<StringFormula> ParseConcatAfter(StringFormula out, TokenStream* ts) {
  for (;;) {
    if (ts->Eat(TokenKind::kDot)) {
      STRDB_ASSIGN_OR_RETURN(StringFormula rhs, ParsePostfix(ts));
      out = StringFormula::Concat(std::move(out), std::move(rhs));
    } else if (StartsBase(ts->Peek())) {
      // Juxtaposition is concatenation, as in the paper's examples.
      STRDB_ASSIGN_OR_RETURN(StringFormula rhs, ParsePostfix(ts));
      out = StringFormula::Concat(std::move(out), std::move(rhs));
    } else {
      break;
    }
  }
  return out;
}

Result<StringFormula> ParseConcat(TokenStream* ts) {
  STRDB_ASSIGN_OR_RETURN(StringFormula out, ParsePostfix(ts));
  return ParseConcatAfter(std::move(out), ts);
}

Result<StringFormula> ParseUnionAfter(StringFormula out, TokenStream* ts) {
  while (ts->Eat(TokenKind::kPlus)) {
    STRDB_ASSIGN_OR_RETURN(StringFormula rhs, ParseConcat(ts));
    out = StringFormula::Union(std::move(out), std::move(rhs));
  }
  return out;
}

Result<StringFormula> ParseUnion(TokenStream* ts) {
  STRDB_ASSIGN_OR_RETURN(StringFormula out, ParseConcat(ts));
  return ParseUnionAfter(std::move(out), ts);
}

}  // namespace

Result<StringFormula> ContinueStringFormula(StringFormula left,
                                            TokenStream* tokens) {
  STRDB_ASSIGN_OR_RETURN(StringFormula out,
                         ParsePostfixAfter(std::move(left), tokens));
  STRDB_ASSIGN_OR_RETURN(out, ParseConcatAfter(std::move(out), tokens));
  return ParseUnionAfter(std::move(out), tokens);
}

Result<StringFormula> ParseStringFormula(TokenStream* tokens) {
  return ParseUnion(tokens);
}

Result<WindowFormula> ParseWindowFormula(TokenStream* tokens) {
  return ParseWinOr(tokens);
}

Result<StringFormula> ParseStringFormula(const std::string& input) {
  STRDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  TokenStream ts(std::move(tokens));
  STRDB_ASSIGN_OR_RETURN(StringFormula out, ParseStringFormula(&ts));
  if (!ts.AtEnd()) return ts.ErrorHere("trailing input after string formula");
  return out;
}

Result<WindowFormula> ParseWindowFormula(const std::string& input) {
  STRDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(input));
  TokenStream ts(std::move(tokens));
  STRDB_ASSIGN_OR_RETURN(WindowFormula out, ParseWindowFormula(&ts));
  if (!ts.AtEnd()) return ts.ErrorHere("trailing input after window formula");
  return out;
}

}  // namespace strdb
