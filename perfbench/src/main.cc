/**
 * @file
 * The repository benchmark's binary (perfbench/README.md).
 *
 *   perfbench --workload offline_grid|service_stream|service_churn
 *             --seed N --seconds S --trace 0|1
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ledger; either way the last stdout line is one JSON object.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload offline_grid|"
                 "service_stream|service_churn --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
}

bool
parseNumber(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && out >= 0;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *val = argv[++i];
        double num = 0;
        if (flag == "--workload") {
            args.workload = val;
        } else if (flag == "--seed" && parseNumber(val, num)) {
            args.seed = std::strtoull(val, nullptr, 10);
        } else if (flag == "--seconds" && parseNumber(val, num) && num > 0) {
            args.seconds = num;
        } else if (flag == "--trace" &&
                   (!std::strcmp(val, "0") || !std::strcmp(val, "1"))) {
            args.trace = val[0] == '1';
        } else {
            return usage();
        }
    }
    if (args.workload == "offline_grid")
        return perfbench::runOfflineGrid(args);
    if (args.workload == "service_stream")
        return perfbench::runServiceStream(args);
    if (args.workload == "service_churn")
        return perfbench::runServiceChurn(args);
    return usage();
}
