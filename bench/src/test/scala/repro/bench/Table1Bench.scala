package repro.bench

import repro.core.Partitioner
import repro.roadnet.RoadNetGen

/** Table 1: road-network statistics — #vertices, #edges, default z,
  * #subgraphs (with the n_b > 5 count in parentheses), and |G_λ|.
  * Paper values (full-size DIMACS networks) are printed alongside for the
  * shape comparison (kspbench/README.md holds the repository's measured
  * record).
  */
class Table1Bench extends BenchHarness {

  private val paper = Map(
    "NY-lite" -> ("264,346", "733,846", 200, "4,173 (1,586)", "24,461"),
    "COL-lite" -> ("435,666", "1,057,066", 200, "8,001 (2,004)", "27,665"),
    "FLA-lite" -> ("1,070,376", "2,712,798", 500, "13,701 (3,682)", "52,640"),
    "CUSA-lite" -> ("14,081,816", "34,292,496", 1000, "121,725 (18,251)", "514,618"))

  test("Table 1: statistics on the (lite) road network datasets") {
    val rows = RoadNetGen.all.map { cfg =>
      val g = RoadNetGen.generate(cfg)
      val p = Partitioner.partition(g, cfg.defaultZ)
      val big = p.subgraphs.count(_.boundaryIds.length > 5)
      val (pv, pe, pz, psg, pgl) = paper(cfg.name)
      Seq(cfg.name, g.numVertices, g.numEdges, cfg.defaultZ,
        s"${p.subgraphs.size} ($big)", p.boundaryVertices.length,
        s"paper: v=$pv e=$pe z=$pz sg=$psg gl=$pgl")
    }
    table("Table 1 (measured on lite networks vs paper full-size)",
      Seq("road network", "#vertices", "#edges", "z", "#subgraphs (n_b>5)", "G_lambda", "paper (full-size)"),
      rows)
    // Shape assertions: skeleton far smaller than the network, subgraph
    // count far above #vertices/z (boundary duplication), as in the paper.
    RoadNetGen.all.foreach { cfg =>
      val g = RoadNetGen.generate(cfg)
      val p = Partitioner.partition(g, cfg.defaultZ)
      assert(p.boundaryVertices.length < g.numVertices / 2, cfg.name)
      assert(p.subgraphs.size > g.numVertices / cfg.defaultZ, cfg.name)
    }
  }
}
