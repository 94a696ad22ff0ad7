package repro.core

import repro.{Oracle, SparkSpec}
import repro.roadnet.RoadNetGen

/** Partitioning invariants of Section 3.3, checked in-memory and via DuckDB. */
class PartitionerSpec extends SparkSpec {

  private lazy val road = RoadNetGen.generate(800, seed = 4)
  private lazy val part = Partitioner.partition(road, z = 40)

  test("every vertex is covered by at least one subgraph") {
    val covered = part.subgraphs.flatMap(_.vertexIds).toSet
    assert(covered == (0 until road.numVertices).toSet)
  }

  test("every edge is owned by exactly one subgraph") {
    val owned = part.subgraphs.flatMap(_.edgeIds)
    assert(owned.size == road.numEdges)
    assert(owned.distinct.size == road.numEdges)
  }

  test("subgraphs never exceed z vertices") {
    assert(part.subgraphs.forall(_.numVertices <= 40))
  }

  test("edge endpoints are members of the owning subgraph") {
    part.subgraphs.foreach { sg =>
      sg.edgeIds.foreach { e =>
        assert(sg.contains(road.edges(e).u) && sg.contains(road.edges(e).v))
      }
    }
  }

  test("boundary vertices are exactly the multi-subgraph vertices") {
    val counts = part.subgraphs.flatMap(_.vertexIds).groupBy(identity).view.mapValues(_.size)
    (0 until road.numVertices).foreach { v =>
      assert(part.isBoundary(v) == (counts(v) >= 2), s"v=$v")
    }
  }

  test("per-subgraph boundary lists agree with the global flags") {
    part.subgraphs.foreach { sg =>
      assert(sg.boundaryIds.toSet == sg.vertexIds.filter(part.isBoundary).toSet)
    }
  }

  test("local graphs mirror global weights and vfrags") {
    part.subgraphs.take(20).foreach { sg =>
      sg.edgeIds.zipWithIndex.foreach { case (e, le) =>
        assert(sg.local.weights(le) == road.weights(e))
        assert(sg.local.vfrags(le) == road.vfrags(e))
      }
    }
  }

  test("subgraphsContainingBoth is symmetric and correct") {
    val b = part.boundaryVertices.take(30)
    for (a <- b.take(5); c <- b.take(15) if a != c) {
      val both = part.subgraphsContainingBoth(a, c).toSet
      assert(both == part.subgraphsContainingBoth(c, a).toSet)
      both.foreach(sgId => assert(part.subgraphs(sgId).contains(a) && part.subgraphs(sgId).contains(c)))
    }
  }

  test("z below 2 is rejected") {
    assertThrows[IllegalArgumentException](Partitioner.partition(road, 1))
  }

  test("a single huge z yields one subgraph and no boundary vertices") {
    val g = RoadNetGen.generate(150, seed = 2)
    val p = Partitioner.partition(g, g.numVertices + 10)
    assert(p.subgraphs.size == 1)
    assert(p.boundaryVertices.isEmpty)
  }

  test("oracle: subgraph edge assignments partition the edge set (SQL)") {
    import spark.implicits._
    val assignDf = part.subgraphs
      .flatMap(sg => sg.edgeIds.map(e => (sg.id, e))).toDF("sg_id", "edge_id")
    val edgesDf = road.edgesDf(spark)
    // Each edge appears exactly once; join back to edges loses nothing.
    val summary = assignDf.join(edgesDf, "edge_id")
      .groupBy().count().selectExpr("CAST(count AS BIGINT) AS n_assigned")
    Oracle.assertEquivalent(
      summary,
      """SELECT count(*) AS n_assigned
        |FROM assign a JOIN edges e ON CAST(a.edge_id AS INT) = CAST(e.edge_id AS INT)""".stripMargin,
      "assign" -> assignDf, "edges" -> edgesDf)
  }

  test("oracle: boundary vertex counts match SQL membership counts") {
    import spark.implicits._
    val memberDf = part.subgraphs
      .flatMap(sg => sg.vertexIds.map(v => (sg.id, v))).toDF("sg_id", "vertex")
    val boundaryDf = part.boundaryVertices.toSeq.toDF("vertex")
    Oracle.assertEquivalent(
      boundaryDf.selectExpr("CAST(count(*) AS BIGINT) AS n_boundary"),
      """SELECT count(*) AS n_boundary FROM (
        |  SELECT vertex FROM member GROUP BY vertex HAVING count(DISTINCT sg_id) >= 2
        |)""".stripMargin,
      "member" -> memberDf, "boundary" -> boundaryDf)
  }
}
