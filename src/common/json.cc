#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace hira {

namespace {

class JsonParser
{
  public:
    JsonParser(const std::string &text, const std::string &where)
        : src(text), file(where)
    {
    }

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos != src.size())
            error("trailing garbage after the top-level value");
        return v;
    }

  private:
    [[noreturn]] void
    error(const std::string &what) const
    {
        fatal("%s: invalid JSON at byte %zu: %s", file.c_str(), pos,
              what.c_str());
    }

    void
    skipSpace()
    {
        while (pos < src.size() &&
               std::isspace(static_cast<unsigned char>(src[pos]))) {
            ++pos;
        }
    }

    char
    peek()
    {
        skipSpace();
        if (pos >= src.size())
            error("unexpected end of input");
        return src[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            error(strprintf("expected '%c'", c));
        ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < src.size() && peek() == c) {
            ++pos;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't':
          case 'f': return parseBool();
          case 'n': return parseNull();
          default: return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (consume('}'))
            return v;
        do {
            JsonValue key = parseString();
            expect(':');
            v.object.emplace_back(key.string, parseValue());
        } while (consume(','));
        expect('}');
        return v;
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (consume(']'))
            return v;
        do {
            v.array.push_back(parseValue());
        } while (consume(','));
        expect(']');
        return v;
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (pos < src.size() && src[pos] != '"') {
            char c = src[pos++];
            if (c != '\\') {
                v.string.push_back(c);
                continue;
            }
            if (pos >= src.size())
                error("unterminated escape");
            char esc = src[pos++];
            switch (esc) {
              case '"': v.string.push_back('"'); break;
              case '\\': v.string.push_back('\\'); break;
              case '/': v.string.push_back('/'); break;
              case 'n': v.string.push_back('\n'); break;
              case 't': v.string.push_back('\t'); break;
              case 'r': v.string.push_back('\r'); break;
              case 'b': v.string.push_back('\b'); break;
              case 'f': v.string.push_back('\f'); break;
              case 'u': {
                if (pos + 4 > src.size())
                    error("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = src[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        error("bad \\u escape digit");
                }
                // Every format this reader serves is ASCII; anything
                // wider is unexpected and likely a producer bug.
                if (code > 0x7f)
                    error("non-ASCII \\u escape");
                v.string.push_back(static_cast<char>(code));
                break;
              }
              default: error("unknown escape");
            }
        }
        if (pos >= src.size())
            error("unterminated string");
        ++pos; // closing quote
        return v;
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (src.compare(pos, 4, "true") == 0) {
            v.boolean = true;
            pos += 4;
        } else if (src.compare(pos, 5, "false") == 0) {
            v.boolean = false;
            pos += 5;
        } else {
            error("expected 'true' or 'false'");
        }
        return v;
    }

    JsonValue
    parseNull()
    {
        if (src.compare(pos, 4, "null") != 0)
            error("expected 'null'");
        pos += 4;
        return JsonValue{};
    }

    JsonValue
    parseNumber()
    {
        const char *start = src.c_str() + pos;
        char *end = nullptr;
        errno = 0;
        double d = std::strtod(start, &end);
        if (end == start || errno == ERANGE)
            error("malformed number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = d;
        pos += static_cast<std::size_t>(end - start);
        return v;
    }

    const std::string &src;
    std::string file;
    std::size_t pos = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text, const std::string &where)
{
    return JsonParser(text, where).parse();
}

} // namespace hira
