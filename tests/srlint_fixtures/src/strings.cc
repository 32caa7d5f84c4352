// All-negative file: every banned token below sits inside a comment, a
// string, a char literal, or a raw string — the token-aware lexer must see
// none of it. A regex linter trips over most of these.

/* Block comment spanning lines with contraband:
   assert(x); rand(); std::mutex mu; printf("x");
   getenv("PATH")
*/

const char* kPlain = "assert(true); rand(); std::lock_guard<std::mutex> l;";
const char* kEscaped = "quote \" then rand() still inside the literal";
const char* kRaw = R"(printf("hi"); std::mutex m; getenv("HOME"))";
const char* kRawDelim = R"xy(a ")" inside: rand() and time(nullptr) )xy";
const char* kMultiRaw = R"(line one rand()
line two std::mutex
line three assert(p))";
const char kQuote = '"';  // the char literal must not open a string
const char* kAfter = "rand()";  // still lexed correctly after the char

// Backslash-continued line comment — the next physical line is comment too: \
   rand(); assert(p); std::mutex hidden;

int working_code_after_all_of_it = 1;
