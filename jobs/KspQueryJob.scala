package repro.jobs

import repro.core.KspQuery
import repro.dist.{SparkDtlp, SparkKspEngine}

/** Run a batch of random KSP queries through the distributed engine
  * (Figures 28–34 workload).
  *
  * Usage: spark-submit --class repro.jobs.KspQueryJob <jar>
  *        [network] [numQueries] [k] [z] [xi]
  */
object KspQueryJob {
  def main(args: Array[String]): Unit = {
    val netName = args.lift(0).getOrElse("NY-lite")
    val nq = args.lift(1).map(_.toInt).getOrElse(100)
    val k = args.lift(2).map(_.toInt).getOrElse(2)
    val spark = JobUtil.session(s"ksp-query-$netName")
    val (name, g, defaultZ) = JobUtil.network(netName)
    val z = args.lift(3).map(_.toInt).getOrElse(defaultZ)
    val xi = args.lift(4).map(_.toInt).getOrElse(8)
    val dtlp = SparkDtlp.build(spark, g, z, xi)
    val engine = SparkKspEngine(dtlp)
    val rnd = new scala.util.Random(13)
    val queries = (1 to nq).map { i =>
      KspQuery(i, rnd.nextInt(g.numVertices), rnd.nextInt(g.numVertices), k)
    }.filter(q => q.s != q.t)
    val (results, secs) = JobUtil.time(engine.batch(queries))
    println(s"network=$name queries=${queries.size} k=$k z=$z xi=$xi")
    println(f"totalSeconds=$secs%.2f avgMsPerQuery=${secs * 1000 / queries.size}%.1f " +
      f"avgIterations=${results.map(_.iterations).sum.toDouble / results.size}%.2f " +
      f"answered=${results.count(_.paths.nonEmpty)}")
    spark.stop()
  }
}
