package repro.core

import repro.SparkSpec
import repro.roadnet.{RoadNetGen, TrafficModel}

/** Whole-index build and maintenance (Algorithms 1–2). */
class DtlpSpec extends SparkSpec {

  test("build covers exactly the boundary pairs with interior-free connections") {
    val g = RoadNetGen.generate(300, seed = 1)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    dtlp.subIndexes.foreach { idx =>
      val bs = idx.sg.boundaryIds
      val banned = bs.map(idx.sg.localOf).toSet
      for (i <- bs.indices; j <- (i + 1) until bs.length) {
        val (a, b) = (math.min(bs(i), bs(j)), math.max(bs(i), bs(j)))
        // adjacent = connected without transiting another boundary vertex
        val adjacent = Dijkstra.shortestPath(
          idx.sg.local, idx.sg.localOf(a), idx.sg.localOf(b),
          bannedVertex = banned.contains).isDefined
        assert(idx.pairs.contains((a, b)) == adjacent, s"sg=${idx.sg.id} pair=($a,$b)")
      }
    }
  }

  test("bounding-path enumeration invariants (cap, order, phi bound)") {
    val g = RoadNetGen.generate(300, seed = 2)
    val xi = 4
    val dtlp = Dtlp.build(g, z = 30, xi = xi)
    dtlp.subIndexes.flatMap(_.pairs.values).foreach { pb =>
      assert(pb.paths.size <= math.max(24, 6 * xi))
      val phis = pb.paths.map(_.phi)
      assert(phis == phis.sorted) // Yen enumerates in ascending vfrag count
      // every stored path is below the unstored-phi bound (== only allowed
      // for tie-dense cap-hit pairs, which fall back to exact refresh)
      if (pb.exactRefresh) assert(phis.forall(_ <= pb.pathPhiBound))
      else assert(phis.forall(_ < pb.pathPhiBound))
    }
  }

  test("exactRefresh pairs carry the exact interior-free shortest distance") {
    val g = RoadNetGen.generate(400, seed = 21)
    val dtlp = Dtlp.build(g, z = 60, xi = 4, LbdMode.Faithful)
    import repro.roadnet.TrafficModel
    (1 to 2).foreach(r => dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.5, 0.5, r)))
    dtlp.subIndexes.foreach { idx =>
      idx.pairs.valuesIterator.filter(_.exactRefresh).foreach { pb =>
        val sp = interiorFreeShortest(idx, pb.a, pb.b).get
        assert(math.abs(pb.exactDist - sp.distance) < 1e-9, s"pair=(${pb.a},${pb.b})")
        assert(math.abs(pb.lbd(LbdMode.Faithful, idx.unitTable) - sp.distance) < 1e-9)
      }
    }
  }

  private def interiorFreeShortest(idx: SubgraphDtlp, a: Int, b: Int): Option[Path] = {
    val banned = idx.sg.boundaryIds.map(idx.sg.localOf).toSet
    Dijkstra.shortestPath(idx.sg.local, idx.sg.localOf(a), idx.sg.localOf(b),
      bannedVertex = banned.contains)
  }

  test("lbd never exceeds the interior-free shortest distance (fresh build)") {
    val g = RoadNetGen.generate(300, seed = 3)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    dtlp.subIndexes.foreach { idx =>
      idx.pairs.foreach { case ((a, b), pb) =>
        val sp = interiorFreeShortest(idx, a, b).get
        assert(pb.lbd(LbdMode.Faithful, idx.unitTable) <= sp.distance + 1e-9, s"pair=($a,$b)")
      }
    }
  }

  test("at construction the lbd is exact when unit weights are uniform") {
    // With all unit weights = 1 and xi high, bd(l_r+1) >= D_u in most pairs;
    // sanity: lbd equals the true shortest distance in its subgraph whenever
    // bd(maxPhi+1) >= shortest distance.
    val g = RoadNetGen.generate(200, seed = 4)
    val dtlp = Dtlp.build(g, z = 20, xi = 3)
    var exact = 0; var total = 0
    dtlp.subIndexes.foreach { idx =>
      idx.pairs.foreach { case ((a, b), pb) =>
        val sp = interiorFreeShortest(idx, a, b).get
        total += 1
        if (math.abs(pb.lbd(LbdMode.Faithful, idx.unitTable) - sp.distance) < 1e-9) exact += 1
      }
    }
    assert(total > 20)
    assert(exact.toDouble / total > 0.5, s"only $exact/$total exact at construction")
  }

  test("update keeps lbd a true lower bound through heavy drift") {
    val g = RoadNetGen.generate(250, seed = 5)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    for (round <- 1 to 4) {
      val batch = TrafficModel.snapshot(g.snapshot(), alpha = 0.6, tau = 0.6, round = round)
      dtlp.update(batch)
      dtlp.subIndexes.foreach { idx =>
        idx.pairs.foreach { case ((a, b), pb) =>
          val sp = interiorFreeShortest(idx, a, b).get
          assert(pb.lbd(LbdMode.Faithful, idx.unitTable) <= sp.distance + 1e-9,
            s"round=$round pair=($a,$b)")
        }
      }
    }
  }

  test("update keeps master, local copies, and skeleton consistent") {
    val g = RoadNetGen.generate(250, seed = 6)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    val batch = TrafficModel.snapshot(g.snapshot(), 0.4, 0.4, round = 1)
    dtlp.update(batch)
    batch.foreach { u =>
      assert(g.weights(u.edgeId) == u.newWeight)
      val sg = dtlp.partitioning.subgraphs(dtlp.partitioning.subgraphOfEdge(u.edgeId))
      assert(sg.local.weights(sg.localEdgeOfGlobal(u.edgeId)) == u.newWeight)
    }
    // Skeleton weights equal freshly recomputed MBDs.
    dtlp.subIndexes.flatMap(_.pairs.keys).distinct.foreach { case (a, b) =>
      val expect = dtlp.partitioning.subgraphsContainingBoth(a, b).iterator
        .flatMap(s => dtlp.subIndexes(s).pairs.get((a, b))
          .map(_.lbd(LbdMode.Faithful, dtlp.subIndexes(s).unitTable)))
        .min
      assert(dtlp.skeleton.weightOf(a, b).exists(w => math.abs(w - expect) < 1e-9), s"pair=($a,$b)")
    }
  }

  test("duplicate events for one edge in a batch compose: EP distances stay exact") {
    val g = RoadNetGen.generate(300, seed = 11)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    val engine = KspDg.local(dtlp)
    val rnd = new scala.util.Random(11)
    for (round <- 1 to 2) {
      // Two events per hit edge, each carrying its delta against the
      // pre-batch weight; the later event's weight is the one that holds.
      val batch = (0 until g.numEdges).filter(_ => rnd.nextDouble() < 0.3).flatMap { e =>
        val w = g.weights(e)
        Seq.fill(2)(w * (0.5 + rnd.nextDouble())).map(nw => WeightUpdate(e, nw, nw - w))
      }
      dtlp.update(batch)
      engine.invalidateCache()
      dtlp.subIndexes.foreach { idx =>
        idx.epPaths.foreach { bp =>
          val repriced = bp.localEdges.map(idx.sg.local.weights).sum
          assert(math.abs(bp.distance - repriced) < 1e-9, s"round=$round path=${bp.pathId}")
        }
      }
      for (_ <- 1 to 6) {
        val s = rnd.nextInt(g.numVertices)
        val t = (s + 1 + rnd.nextInt(g.numVertices - 1)) % g.numVertices
        val got = TestGraphs.distances(engine.query(KspQuery(0, s, t, 3)).paths)
        assert(got == TestGraphs.distances(Yen.ksp(g, s, t, 3)), s"round=$round s=$s t=$t")
      }
    }
  }

  test("update rejects unknown edges and non-finite or non-positive weights, writing nothing") {
    val g = RoadNetGen.generate(200, seed = 12)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    val before = g.weights.clone()
    val sg0 = dtlp.partitioning.subgraphs(dtlp.partitioning.subgraphOfEdge(0))
    val valid = WeightUpdate(0, 2 * before(0), before(0))
    val bad = Seq(WeightUpdate(g.numEdges, 1.0, 1.0), WeightUpdate(-1, 1.0, 1.0),
      WeightUpdate(1, 0.0, -before(1)), WeightUpdate(1, -3.0, -3.0 - before(1)),
      WeightUpdate(1, Double.NaN, Double.NaN),
      WeightUpdate(1, Double.PositiveInfinity, Double.PositiveInfinity))
    bad.foreach { u =>
      assertThrows[IllegalArgumentException](dtlp.update(Seq(valid, u)))
      assert(g.weights.sameElements(before), s"master graph written for $u")
      assert(sg0.local.weights(sg0.localEdgeOfGlobal(0)) == before(0), s"local copy written for $u")
    }
  }

  test("bounding paths themselves never change across updates") {
    val g = RoadNetGen.generate(200, seed = 7)
    val dtlp = Dtlp.build(g, z = 20, xi = 3, LbdMode.Faithful)
    val before = dtlp.subIndexes.flatMap(_.pairs.values).flatMap(_.paths)
      .map(bp => bp.pathId -> (bp.phi, bp.localVertices.toSeq)).toMap
    (1 to 3).foreach { r => dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.5, 0.5, r)) }
    dtlp.subIndexes.flatMap(_.pairs.values).flatMap(_.paths).foreach { bp =>
      assert(before(bp.pathId) == ((bp.phi, bp.localVertices.toSeq)))
    }
  }

  test("partialKsp returns boundary-free-interior paths in global ids") {
    val g = RoadNetGen.generate(300, seed = 8)
    val dtlp = Dtlp.build(g, z = 30, xi = 2)
    val idx = dtlp.subIndexes.maxBy(_.sg.boundaryIds.length)
    val bs = idx.sg.boundaryIds
    val paths = idx.partialKsp(bs(0), bs(1), k = 3)
    paths.foreach { p =>
      assert(p.source == bs(0) && p.target == bs(1))
      assert(p.isSimple)
      p.vertices.drop(1).dropRight(1).foreach(v => assert(!dtlp.partitioning.isBoundary(v)))
      assert(math.abs(g.walkDistance(p.vertices) - p.distance) < 1e-9)
    }
    assert(paths.map(_.distance) == paths.map(_.distance).sorted)
  }

  test("boundsFrom lower-bounds true shortest distances from any member vertex") {
    val g = RoadNetGen.generate(300, seed = 9)
    val dtlp = Dtlp.build(g, z = 30, xi = 3)
    val idx = dtlp.subIndexes.maxBy(_.sg.numVertices)
    val interior = idx.sg.vertexIds.find(v => !dtlp.partitioning.isBoundary(v)).get
    val banned = idx.sg.boundaryIds.map(idx.sg.localOf).toSet
    idx.boundsFrom(interior).foreach { case (tgt, lbd) =>
      val sp = Dijkstra.shortestPath(idx.sg.local, idx.sg.localOf(interior), idx.sg.localOf(tgt),
        bannedVertex = banned.contains).get
      assert(lbd <= sp.distance + 1e-9, s"target=$tgt")
    }
  }

  test("epStorageElements aggregates all subgraphs") {
    val g = RoadNetGen.generate(200, seed = 10)
    val dtlp = Dtlp.build(g, z = 20, xi = 2)
    assert(dtlp.epStorageElements == dtlp.subIndexes.map(_.epIndex.storageElements).sum)
    assert(dtlp.epStorageElements > 0)
  }
}
