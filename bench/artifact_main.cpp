/**
 * @file
 * The bench binary of one paper artifact. CMake builds this file once
 * per artifact, under the artifact's historical binary name
 * (table1_traversals, fig3_snoop_vs_dir, ablation_ring, ...), with
 * RINGSIM_ARTIFACT naming its figures::FigureId.
 *
 * The artifact itself — what it reproduces, its blocks and its paper
 * shape notes — is its registry entry in src/figures/artifacts.cpp;
 * this binary parses flags and prints. Pass --service ENDPOINT to
 * route the sweep through a ringsim_serve daemon: the output bytes
 * are identical either way.
 */

#include "bench/common.hpp"

using namespace ringsim;

int
main(int argc, char **argv)
{
    const figures::FigureId id = figures::FigureId::RINGSIM_ARTIFACT;
    bench::Options opt =
        bench::parseOptions(argc, argv, id == figures::FigureId::Fig6);
    return bench::runFigure(id, opt);
}
